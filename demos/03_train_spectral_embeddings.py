"""Train spectral embeddings from raw text and compare the two signals.

A toy corpus with topic structure is generated inline, co-occurrences are
counted in a sliding window, and embeddings come from a truncated SVD of
either the positive-PMI or the log-count signal. The two signals share the
corpus, so their spaces are far closer to each other than independence
would allow.
"""

import tempfile
from pathlib import Path

import numpy as np

from rpd import (
    align_vocabularies,
    count_cooccurrences,
    dependence_test,
    load_embeddings,
    log_count_matrix,
    pmi_matrix,
    save_embeddings,
    svd_embedding,
    tokenize_corpus_text,
    truncated_svd,
)

# --- a tiny topical corpus: weather words vs cooking words ---
rng = np.random.default_rng(7)
topics = {
    "weather": "rain snow wind storm cloud sun frost hail fog thunder".split(),
    "cooking": "pan stir bake salt onion butter flour oven spice knife".split(),
    "shared": "the a of and to in day good make more".split(),
}
lines = []
for _ in range(3000):
    topic = rng.choice(["weather", "cooking"])
    words = []
    for _ in range(int(rng.integers(8, 16))):
        pool = topics[topic] if rng.random() < 0.7 else topics["shared"]
        words.append(pool[int(rng.integers(len(pool)))])
    lines.append(" ".join(words))
text = "\n".join(lines)
print(f"corpus: {len(text)} characters, {len(lines)} lines")

documents = tokenize_corpus_text(text)
counts = count_cooccurrences(documents, window=5, min_count=5)
print(f"vocabulary: {len(counts.vocab)} words, "
      f"{counts.counts.nnz} nonzero count cells, total weight {counts.total:.0f}")

dim = 10
embeddings = {}
for name, signal in (("pmi", pmi_matrix(counts)), ("logcount", log_count_matrix(counts))):
    factors = truncated_svd(signal, dim)
    embeddings[name] = svd_embedding(factors, counts.vocab)
    print(f"{name:>8}: top singular values {np.round(factors.S[:4], 2)}")

# --- round-trip through the text format ---
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "pmi.txt"
    save_embeddings(embeddings["pmi"], path)
    reloaded = load_embeddings(path)
    print(f"\nround trip through {path.name}: vocab preserved = "
          f"{reloaded.vocab == embeddings['pmi'].vocab}, "
          f"max entry error = {np.max(np.abs(reloaded.matrix - embeddings['pmi'].matrix)):.1e}")

# --- the two signals give different but strongly dependent spaces ---
pair = align_vocabularies(embeddings["pmi"], embeddings["logcount"])
test = dependence_test(pair, replicates=200, seed=0)
print(f"\ndistance(PMI, logcount) = {test.observed_rpd:.3f} on {pair.n} shared words")
print(f"independence null: mu = {test.null.mu:.3f}, sigma = {test.null.sigma:.4f}")
print(f"z = {test.z:+.1f} -> the spaces are dependent (p = {test.p_two_sided:.2e})")

# --- nearest neighbours sanity check ---
emb = embeddings["pmi"]
unit = emb.matrix / np.linalg.norm(emb.matrix, axis=1, keepdims=True)
for probe in ("rain", "butter"):
    i = emb.index[probe]
    sims = unit @ unit[i]
    nearest = np.argsort(-sims)[1:5]
    print(f"nearest to {probe!r}: {[emb.vocab[j] for j in nearest]}")
