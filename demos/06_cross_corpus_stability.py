"""How stable is a training method across initializations and corpora?

Two desk-scale experiments:

1. Same corpus, different random seeds: the seed only picks the start vector
   of the exact SVD solver, so the resulting spaces should be identical up to
   roundoff.
2. Different corpora (here: different topic mixtures standing in for domains):
   the spaces share real structure but drift apart, and the distance computed
   on the vocabulary intersection quantifies by how much.
"""

import numpy as np

from rpd import (
    align_vocabularies,
    count_cooccurrences,
    monte_carlo_null,
    pmi_matrix,
    rpd,
    svd_embedding,
    tokenize_corpus_text,
    truncated_svd,
    z_test,
)


def make_corpus(topic_weights, seed, n_lines=2500):
    """Topical toy text; topic_weights shifts the domain's vocabulary usage."""
    rng = np.random.default_rng(seed)
    topics = {
        "weather": "rain snow wind storm cloud sun frost hail fog thunder".split(),
        "cooking": "pan stir bake salt onion butter flour oven spice knife".split(),
        "travel": "road train ticket map hotel coast city ferry pass border".split(),
        "shared": "the a of and to in day good make more with for".split(),
    }
    names = list(topic_weights)
    weights = np.array([topic_weights[t] for t in names], dtype=float)
    weights /= weights.sum()
    lines = []
    for _ in range(n_lines):
        topic = names[int(rng.choice(len(names), p=weights))]
        words = []
        for _ in range(int(rng.integers(8, 16))):
            pool = topics[topic] if rng.random() < 0.7 else topics["shared"]
            words.append(pool[int(rng.integers(len(pool)))])
        lines.append(" ".join(words))
    return "\n".join(lines)


def train(text, seed=0, dim=10):
    counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=5)
    factors = truncated_svd(pmi_matrix(counts), dim, seed=seed)
    return svd_embedding(factors)


dim = 10
wiki_like = make_corpus({"weather": 1.0, "cooking": 1.0, "travel": 1.0}, seed=1)
news_like = make_corpus({"weather": 2.0, "cooking": 0.3, "travel": 1.5}, seed=2)

print("=== initialization stability (same corpus, different seeds) ===")
emb_a = train(wiki_like, seed=0, dim=dim)
emb_b = train(wiki_like, seed=99, dim=dim)
pair = align_vocabularies(emb_a, emb_b)
d_init = rpd(pair).rpd
print(f"distance across seeds    = {d_init:.2e}  (the seed only picks the SVD start vector)")

print("\n=== corpus influence (same method, different domains) ===")
emb_news = train(news_like, seed=0, dim=dim)
pair = align_vocabularies(emb_a, emb_news)
d_corpus = rpd(pair).rpd
print(f"shared vocabulary        = {pair.n} words "
      f"(coverage {pair.coverage_left:.2f} / {pair.coverage_right:.2f})")
print(f"distance across corpora  = {d_corpus:.3f}")

null = monte_carlo_null(pair.n, dim, dim, replicates=200, seed=0)
result = z_test(d_corpus, null)
print(f"independence null        = {null.mu:.3f} +/- {null.sigma:.4f}")
print(f"z = {result.z:+.1f} -> still far from independent (p = {result.p_two_sided:.2e})")

print("\ncorpus shift moves the space orders of magnitude more than the seed"
      f" ({d_corpus:.3f} vs {d_init:.2e}), yet nowhere near independence.")
