"""End-to-end acceptance suite.

Each test checks one exit criterion at its stated tolerance and prints a
PASS line when it holds; run with ``pytest -s tests/test_acceptance.py`` to
see the lines. Runtime-limited criteria assert their own wall-clock budget.
"""

import time

import numpy as np
import pytest

from _corpus import synthetic_corpus_text
from _oracle import naive_gram_oracle
from conftest import random_embedding, random_orthogonal, reference_null
from rpd import (
    AlignedPair,
    AnalogyDataset,
    AnalogyQuestion,
    EmbeddingMatrix,
    SimilarityDataset,
    align_vocabularies,
    count_cooccurrences,
    decompose_per_word,
    layout_from_distances,
    log_count_matrix,
    monte_carlo_null,
    perf_vs_rpd_study,
    pmi_matrix,
    random_gaussian_embedding,
    rpd,
    spearman,
    standardize,
    svd_embedding,
    tokenize_corpus_text,
    truncated_svd,
    z_test,
)
from rpd.gram import gram_side


def _ok(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS", flush=True)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 301))
        d_left = int(rng.integers(1, 41))
        d_right = int(rng.integers(1, 41))
        vocab = tuple(f"w{i}" for i in range(n))
        pair = AlignedPair(
            EmbeddingMatrix(vocab, rng.standard_normal((n, d_left))),
            EmbeddingMatrix(vocab, rng.standard_normal((n, d_right))),
            vocab,
        )
        fast = rpd(pair).rpd
        left, right = standardize(pair.left), standardize(pair.right)
        o = naive_gram_oracle(left, right)
        reference = 0.5 * (o.norm_a / o.norm_b + o.norm_b / o.norm_a) - o.inner / (
            o.norm_a * o.norm_b
        )
        assert fast == pytest.approx(reference, rel=1e-10, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(1, "trace identity matches naive Gram oracle")


def test_criterion_2_metric_sanity():
    rng = np.random.default_rng(202)
    emb = random_embedding(rng, 300, 30)

    assert rpd(AlignedPair(emb, emb, emb.vocab)).rpd <= 1e-12

    for _ in range(20):
        q = random_orthogonal(rng, 30)
        rotated = EmbeddingMatrix(emb.vocab, emb.matrix @ q)
        assert rpd(AlignedPair(emb, rotated, emb.vocab)).rpd <= 1e-10

    other = random_embedding(rng, 300, 24)
    base = rpd(AlignedPair(emb, other, emb.vocab)).rpd
    for c in (-3.0, 0.01, 7.0):
        scaled = EmbeddingMatrix(emb.vocab, c * emb.matrix)
        assert rpd(AlignedPair(scaled, other, emb.vocab)).rpd == pytest.approx(
            base, abs=1e-12
        )

    assert rpd(AlignedPair(other, emb, emb.vocab)).rpd == pytest.approx(
        base, abs=1e-12
    )

    perm = rng.permutation(300)
    permuted = rpd(
        AlignedPair(
            EmbeddingMatrix(emb.vocab, emb.matrix[perm]),
            EmbeddingMatrix(emb.vocab, other.matrix[perm]),
            emb.vocab,
        )
    ).rpd
    assert permuted == pytest.approx(base, abs=1e-12)
    _ok(2, "identity, rotation, scale, symmetry, row permutation")


def test_criterion_3_norm_asymptotics():
    start = time.perf_counter()
    n, d = 5000, 100
    side = gram_side(random_gaussian_embedding(n, d, seed=303).matrix)
    ratio = side.norm / side.divisor / (n * np.sqrt(d))
    assert 0.99 <= ratio <= 1.03
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok(3, f"Gram norm / (n sqrt(d)) = {ratio:.4f} in [0.99, 1.03]")


def test_criterion_4_null_model_calibration():
    start = time.perf_counter()
    null = monte_carlo_null(1000, 100, 100, replicates=300, seed=0)
    assert null.mu == pytest.approx(0.900, abs=0.01)
    assert null.sigma < 0.01
    assert abs(null.skewness) < 0.3
    assert abs(null.excess_kurtosis) < 0.6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(4, f"mu={null.mu:.4f}, sigma={null.sigma:.4f}, "
           f"skew={null.skewness:+.2f}, kurt={null.excess_kurtosis:+.2f}")


def test_criterion_5_z_test_arithmetic():
    result = z_test(0.511, reference_null())
    assert abs(result.z) == pytest.approx(442.0, abs=0.5)
    assert result.p_two_sided < 1e-100
    assert result.reject_at_0_01
    _ok(5, f"|z| = {abs(result.z):.1f}, p << 0.01")


def test_criterion_6_per_word_decomposition():
    n, d = 2000, 50
    left = random_gaussian_embedding(n, d, seed=606)
    right = random_gaussian_embedding(n, d, seed=607)
    report = decompose_per_word(AlignedPair(left, right, left.vocab))

    mean_cos = float(np.mean([p.cos_theta_i for p in report.per_word]))
    assert abs(report.rpd - (1.0 - mean_cos)) < 0.02

    weighted = float(sum(p.w_i * p.cos_theta_i for p in report.per_word))
    assert weighted == pytest.approx(report.cosine_term, abs=1e-9)
    _ok(6, f"|rpd - (1 - mean cos)| = {abs(report.rpd - (1 - mean_cos)):.4f}, "
           f"weighted identity holds")


def test_criterion_7_spectral_trainer_correctness(tmp_path):
    text = synthetic_corpus_text(14000, vocab_size=300, n_topics=6, seed=42)
    corpus_path = tmp_path / "fixture.txt"
    corpus_path.write_text(text, encoding="utf-8")
    assert corpus_path.stat().st_size <= 100 * 1024

    docs = tokenize_corpus_text(text)
    counts = count_cooccurrences(docs, window=5, min_count=5)
    signal = pmi_matrix(counts)
    d = 32
    factors = truncated_svd(signal, d)

    dense_s = np.linalg.svd(signal.toarray(), compute_uv=False)[:d]
    np.testing.assert_allclose(factors.S, dense_s, rtol=1e-6)

    emb = svd_embedding(factors, counts.vocab)
    gram_d = emb.matrix.T @ emb.matrix
    np.testing.assert_allclose(gram_d, np.diag(factors.S), atol=1e-8)

    rerun = truncated_svd(signal, d)
    emb2 = svd_embedding(rerun, counts.vocab)
    assert emb.vocab == emb2.vocab
    assert np.array_equal(emb.matrix, emb2.matrix)
    _ok(7, "singular values at oracle accuracy, diagonal Gram, bit-identical reruns")


def test_criterion_8_trained_spaces_are_dependent():
    start = time.perf_counter()
    text = synthetic_corpus_text(200_000, vocab_size=1500, n_topics=8, seed=1)
    assert len(text.encode("utf-8")) >= 1_048_576

    docs = tokenize_corpus_text(text)
    counts = count_cooccurrences(docs, window=10, min_count=10)
    d = 100
    factors_pmi = truncated_svd(pmi_matrix(counts), d)
    factors_lc = truncated_svd(log_count_matrix(counts), d)
    emb_pmi = svd_embedding(factors_pmi, counts.vocab)
    emb_lc = svd_embedding(factors_lc, counts.vocab)

    pair = align_vocabularies(emb_pmi, emb_lc)
    observed = rpd(pair).rpd
    assert observed > 0.0

    null = monte_carlo_null(pair.n, d, d, replicates=200, seed=0)
    assert null.mu - observed > 10.0 * null.sigma

    result = z_test(observed, null)
    assert result.p_two_sided < 1e-10
    assert result.reject_at_0_01

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _ok(8, f"rpd(PMI, LC) = {observed:.3f} is {(null.mu - observed) / null.sigma:.0f} "
           f"sigma below the null mean {null.mu:.3f}; H0 rejected")


def test_criterion_9_performance_tracks_distance():
    rng = np.random.default_rng(77)
    base = random_embedding(rng, 300, 16)
    unit = base.matrix / np.linalg.norm(base.matrix, axis=1, keepdims=True)
    words = base.vocab

    pairs = []
    for _ in range(60):
        i, j = rng.choice(300, size=2, replace=False)
        pairs.append((words[i], words[j], float(unit[i] @ unit[j])))
    sim_ds = SimilarityDataset(tuple(pairs))

    questions = []
    for _ in range(40):
        ia, ib, ic = rng.choice(300, size=3, replace=False)
        target = unit[ib] - unit[ia] + unit[ic]
        scores = unit @ target
        scores[[ia, ib, ic]] = -np.inf
        questions.append(
            AnalogyQuestion(words[ia], words[ib], words[ic], words[int(np.argmax(scores))])
        )
    ana_ds = AnalogyDataset(tuple(questions))

    noised = []
    for level, scale in enumerate(np.linspace(0.1, 2.0, 10)):
        noise = rng.standard_normal(base.matrix.shape)
        noised.append(
            (f"noise{level}", EmbeddingMatrix(base.vocab, base.matrix + scale * noise))
        )

    study = perf_vs_rpd_study(base, noised, sim_ds, ana_ds)
    assert len(study.entries) >= 8
    assert all(e.error is None for e in study.entries)
    assert study.rank_correlation is not None
    assert study.rank_correlation > 0.8
    _ok(9, f"rank correlation distance vs performance delta = "
           f"{study.rank_correlation:.3f} > 0.8")


def test_criterion_10_layout_recovery():
    dist = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    result = layout_from_distances(dist, ["a", "b", "c"], "a", "b")
    np.testing.assert_allclose(result.position("a"), (0.0, 0.0), atol=1e-9)
    np.testing.assert_allclose(result.position("b"), (1.0, 0.0), atol=1e-9)
    np.testing.assert_allclose(result.position("c"), (0.5, np.sqrt(3) / 2), atol=1e-9)

    rng = np.random.default_rng(1010)
    points = rng.standard_normal((4, 2)) * 3.0
    delta = points[:, None, :] - points[None, :, :]
    dist4 = np.sqrt(np.sum(delta * delta, axis=2))
    layout = layout_from_distances(dist4, ["p0", "p1", "p2", "p3"], "p0", "p1")
    delta_hat = layout.coords[:, None, :] - layout.coords[None, :, :]
    realized = np.sqrt(np.sum(delta_hat * delta_hat, axis=2))
    np.testing.assert_allclose(realized, dist4, atol=1e-6)
    assert layout.stress < 1e-6
    _ok(10, f"planar distances recovered, stress = {layout.stress:.2e}")


def test_criterion_11_evaluation_correctness():
    rng = np.random.default_rng(1111)

    def brute_force(x, y):
        def ranks(values):
            return [
                sum(1 for u in values if u < v) + (sum(1 for u in values if u == v) + 1) / 2
                for v in values
            ]
        rx, ry = ranks(list(x)), ranks(list(y))
        mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
        num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
        den = np.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
        return num / den

    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 40))
        tied = bool(rng.integers(2))
        if tied:
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
        else:
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        assert spearman(x, y) == pytest.approx(brute_force(x, y), abs=1e-12)
        checked += 1

    from rpd import eval_analogy_3cosadd

    n, d = 40, 9
    emb = random_embedding(rng, n, d)
    unit = emb.matrix / np.linalg.norm(emb.matrix, axis=1, keepdims=True)
    words = emb.vocab
    questions = []
    correct_reference = 0
    for _ in range(50):
        ia, ib, ic, expected = rng.choice(n, size=4, replace=False)
        questions.append(
            AnalogyQuestion(words[ia], words[ib], words[ic], words[expected])
        )
        target = unit[ib] - unit[ia] + unit[ic]
        best_score, best_word = -np.inf, None
        for j in range(n):
            if j in (ia, ib, ic):
                continue
            score = float(unit[j] @ target)
            if score > best_score or (score == best_score and words[j] < best_word):
                best_score, best_word = score, words[j]
        if best_word == words[expected]:
            correct_reference += 1

    result = eval_analogy_3cosadd(emb, AnalogyDataset(tuple(questions)))
    assert result.analogy_accuracy == correct_reference / 50
    _ok(11, "rank correlation and analogy scoring match brute-force oracles")
