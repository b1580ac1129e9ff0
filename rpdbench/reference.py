"""Reference computations the benchmark checks the program's outputs against.

Each is a direct float64 numpy implementation written for this benchmark,
sharing no code with ``rpd``, and none runs inside a timed region.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh
from scipy.stats import rankdata


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(value: float, ref: float, tol: float, what: str) -> None:
    """|value - ref| <= tol * max(1, |ref|)."""
    expect(abs(value - ref) <= tol * max(1.0, abs(ref)),
           f"{what}: {value!r} differs from reference {ref!r}")


def rpd_terms(x: np.ndarray, y: np.ndarray) -> dict:
    """RPD, its two terms and the d-space Gram blocks of standardized x, y.

    Standardizing divides by the root-mean-square entry; the Gram norms come
    from the trace identities ||E Eᵀ||_F = ||EᵀE||_F and
    <E₁E₁ᵀ, E₂E₂ᵀ>_F = ||E₁ᵀE₂||_F².
    """
    ex = x / np.sqrt(np.mean(x * x))
    ey = y / np.sqrt(np.mean(y * y))
    gxx, gyy, gxy = ex.T @ ex, ey.T @ ey, ex.T @ ey
    a, b = np.linalg.norm(gxx), np.linalg.norm(gyy)
    ratio = 0.5 * (a / b + b / a)
    cosine = float(np.sum(gxy * gxy)) / (a * b)
    return {"rpd": ratio - cosine, "ratio_term": ratio, "cosine_term": cosine,
            "a": a, "b": b, "ex": ex, "ey": ey, "gxx": gxx, "gyy": gyy, "gxy": gxy}


def per_word(terms: dict) -> tuple[np.ndarray, np.ndarray]:
    """(cos θᵢ, wᵢ) of every word: row i of ẼẼᵀ is ẽᵢ·Ẽᵀ."""
    ex, ey = terms["ex"], terms["ey"]
    dot = np.einsum("ij,ij->i", ex @ terms["gxy"], ey)
    nx = np.sqrt(np.maximum(np.einsum("ij,ij->i", ex @ terms["gxx"], ex), 0.0))
    ny = np.sqrt(np.maximum(np.einsum("ij,ij->i", ey @ terms["gyy"], ey), 0.0))
    return np.clip(dot / (nx * ny), -1.0, 1.0), nx * ny / (terms["a"] * terms["b"])


def wishart_null(n: int, d1: int, d2: int, draws: int, rng: np.random.Generator,
                 batch: int = 50) -> np.ndarray:
    """Null RPD draws of independent Gaussian n×d1 and n×d2 spaces, exactly.

    W = [E₁ E₂]ᵀ[E₁ E₂] is Wishart(n, I), sampled by the Bartlett
    decomposition W = A Aᵀ (A lower triangular, A_ii² ~ χ²(n - i),
    A_ij ~ N(0, 1) below the diagonal). The standardized RPD is a function
    of W alone, so these draws follow the same distribution as the
    program's n-row draws at O((d1+d2)³) cost each.
    """
    p = d1 + d2
    lower = np.tril_indices(p, -1)
    out = []
    for start in range(0, draws, batch):
        m = min(batch, draws - start)
        a = np.zeros((m, p, p))
        a[:, lower[0], lower[1]] = rng.standard_normal((m, lower[0].size))
        a[:, np.arange(p), np.arange(p)] = np.sqrt(rng.chisquare(n - np.arange(p), (m, p)))
        w = a @ a.transpose(0, 2, 1)
        g11, g22, g12 = w[:, :d1, :d1], w[:, d1:, d1:], w[:, :d1, d1:]
        s1 = np.trace(g11, axis1=1, axis2=2) / (n * d1)
        s2 = np.trace(g22, axis1=1, axis2=2) / (n * d2)
        a_norm = np.linalg.norm(g11, axis=(1, 2)) / s1
        b_norm = np.linalg.norm(g22, axis=(1, 2)) / s2
        inner = np.sum(g12 * g12, axis=(1, 2)) / (s1 * s2)
        out.append(0.5 * (a_norm / b_norm + b_norm / a_norm) - inner / (a_norm * b_norm))
    return np.concatenate(out)


def count_cells(streams: list[np.ndarray], vocab_size: int, window: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted upper-triangle keys ``i * V + j`` and their symmetric flat counts.

    ``streams`` are per-document id arrays already filtered to the
    vocabulary. A forward pair (i, j) adds one to cell (i, j) and one to
    (j, i), so a diagonal cell counts two per pair.
    """
    rows, cols = [], []
    for k in range(1, window + 1):
        for ids in streams:
            if ids.size > k:
                rows.append(ids[:-k])
                cols.append(ids[k:])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    lo, hi = np.minimum(r, c), np.maximum(r, c)
    keys, counts = np.unique(lo * vocab_size + hi, return_counts=True)
    counts = counts.astype(np.float64)
    counts[keys // vocab_size == keys % vocab_size] *= 2.0
    return keys, counts


def top_singular_values(keys: np.ndarray, counts: np.ndarray, vocab_size: int,
                        k: int) -> np.ndarray:
    """Top-k singular values of the positive-PMI matrix of the counts.

    The matrix is symmetric, so they are the largest |eigenvalues| (ARPACK,
    fixed start vector).
    """
    i, j = keys // vocab_size, keys % vocab_size
    full = sparse.coo_array(
        (np.concatenate([counts, counts[i != j]]),
         (np.concatenate([i, j[i != j]]), np.concatenate([j, i[i != j]]))),
        shape=(vocab_size, vocab_size)).tocsr()
    coo = full.tocoo()
    rowsums = np.asarray(full.sum(axis=1)).ravel()
    total = float(full.sum())
    pmi = np.log(coo.data * total / (rowsums[coo.row] * rowsums[coo.col]))
    keep = pmi > 0
    signal = sparse.csr_array((pmi[keep], (coo.row[keep], coo.col[keep])),
                              shape=full.shape)
    v0 = np.full(vocab_size, 1.0 / np.sqrt(vocab_size))
    vals = eigsh(signal, k=k, which="LM", v0=v0, return_eigenvectors=False)
    return np.sort(np.abs(vals))[::-1]


def similarity_score(index: dict[str, int], unit: np.ndarray,
                     pairs: list[tuple[str, str, float]]) -> tuple[float | None, float]:
    """Spearman (average ranks) of pair cosines against scores, and coverage."""
    covered = [(index[a], index[b], s) for a, b, s in pairs if a in index and b in index]
    coverage = len(covered) / len(pairs)
    if not covered:
        return None, coverage
    ia, ib, scores = (np.array(v) for v in zip(*covered))
    cosines = np.einsum("ij,ij->i", unit[ia], unit[ib])
    rho = np.corrcoef(rankdata(cosines), rankdata(scores))[0, 1]
    return float(rho), coverage


def analogy_score(words: list[str], unit: np.ndarray,
                  questions: list[tuple[str, str, str, str]]) -> tuple[float | None, float]:
    """3CosAdd accuracy and coverage, all questions at once.

    The prediction maximizes cos(v, b - a + c) over words other than a, b, c;
    tied scores go to the lexicographically smallest word.
    """
    index = {w: i for i, w in enumerate(words)}
    covered = np.array([[index[w] for w in q] for q in questions
                        if all(w in index for w in q)], dtype=np.int64).reshape(-1, 4)
    coverage = len(covered) / len(questions)
    if len(covered) == 0:
        return None, coverage
    lex_rank = np.empty(len(words), dtype=np.int64)
    lex_rank[np.argsort(np.array(words))] = np.arange(len(words))
    correct = 0
    for start in range(0, len(covered), 512):
        q = covered[start:start + 512]
        targets = unit[q[:, 1]] - unit[q[:, 0]] + unit[q[:, 2]]
        scores = targets @ unit.T
        rows = np.arange(len(q))[:, None]
        scores[rows, q[:, :3]] = -np.inf
        best = scores.max(axis=1, keepdims=True)
        tied_rank = np.where(scores == best, lex_rank[None, :], len(words))
        prediction = np.argsort(lex_rank)[tied_rank.min(axis=1)]
        correct += int(np.sum(prediction == q[:, 3]))
    return correct / len(covered), coverage


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)
