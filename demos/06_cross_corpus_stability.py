"""How far do training choices and corpora move a method's space?

Three desk-scale experiments with one method (PPMI + SVD):

1. Retrain on the same corpus with the same options: a trained embedding
   depends only on its corpus and options (the SVD starts from a fixed vector
   and fixes the sign of each component), so the distance is exactly zero.
2. Same corpus, a different context window (2 instead of 5): a training
   choice moves the space a little.
3. Different corpora (here: different topic mixtures standing in for domains):
   the spaces share real structure but drift apart, and the distance computed
   on the vocabulary intersection quantifies by how much.
"""

import numpy as np

from rpd import (
    align_vocabularies,
    count_cooccurrences,
    monte_carlo_null,
    rpd,
    tokenize_corpus_text,
    train_spectral_embedding,
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


def train(text, window=5, dim=10):
    counts = count_cooccurrences(tokenize_corpus_text(text), window=window, min_count=5)
    return train_spectral_embedding(counts, "pmi", dim)


def distance(a, b):
    return rpd(align_vocabularies(a, b)).rpd


dim = 10
wiki_like = make_corpus({"weather": 1.0, "cooking": 1.0, "travel": 1.0}, seed=1)
news_like = make_corpus({"weather": 2.0, "cooking": 0.3, "travel": 1.5}, seed=2)
emb_wiki = train(wiki_like, dim=dim)

print("=== retraining (same corpus, same options) ===")
d_retrain = distance(emb_wiki, train(wiki_like, dim=dim))
print(f"distance across retrains = {d_retrain}")

print("\n=== a training choice (same corpus, window 2 vs 5) ===")
d_window = distance(emb_wiki, train(wiki_like, window=2, dim=dim))
print(f"distance across windows  = {d_window:.4f}")

print("\n=== corpus influence (same method, different domains) ===")
emb_news = train(news_like, dim=dim)
pair = align_vocabularies(emb_wiki, emb_news)
d_corpus = rpd(pair).rpd
print(f"shared vocabulary        = {pair.n} words "
      f"(coverage {pair.coverage_left:.2f} / {pair.coverage_right:.2f})")
print(f"distance across corpora  = {d_corpus:.3f}")

null = monte_carlo_null(pair.n, dim, dim, replicates=200, seed=0)
result = z_test(d_corpus, null)
print(f"independence null        = {null.mu:.3f} +/- {null.sigma:.4f}")
verdict = "still dependent" if result.reject_at_0_01 else "not told apart from independent"
print(f"z = {result.z:+.1f} -> {verdict} (p = {result.p_two_sided:.2e})")

moves = sorted([("a retrain", d_retrain), ("the window change", d_window),
                ("the corpus shift", d_corpus)], key=lambda move: move[1])
print("\nfrom least to most movement: "
      + " < ".join(f"{name} ({value:.3g})" for name, value in moves)
      + f"; the space trained on the shifted corpus is {verdict}.")
