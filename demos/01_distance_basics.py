"""Walk through the embedding-space distance and its properties.

The distance compares two spaces through their n-by-n inner-product (Gram)
structure, so it ignores everything a rotation can change and has a common
scale across methods and dimensions: identical spaces sit at 0, independent
random spaces near 1 - d/n.
"""

import numpy as np

from rpd import (
    AlignedPair,
    EmbeddingMatrix,
    align_vocabularies,
    decompose_per_word,
    random_gaussian_embedding,
    rpd,
)

n, d = 2000, 50
base = random_gaussian_embedding(n, d, seed=1)

print("=== identical spaces ===")
report = rpd(AlignedPair(base, base, base.vocab))
print(f"distance(E, E)          = {report.rpd:.2e}")

print("\n=== rotated copy (same geometry, different axes) ===")
rng = np.random.default_rng(0)
q, r = np.linalg.qr(rng.standard_normal((d, d)))
rotated = EmbeddingMatrix(base.vocab, base.matrix @ (q * np.sign(np.diag(r))))
report = rpd(AlignedPair(base, rotated, base.vocab))
print(f"distance(E, EQ)         = {report.rpd:.2e}")

print("\n=== independent random space ===")
other = random_gaussian_embedding(n, d, seed=2)
report = rpd(AlignedPair(base, other, base.vocab))
print(f"distance(E, E')         = {report.rpd:.4f}")
print(f"1 - d/n                 = {1 - d / n:.4f}   (large-n expectation)")
print(f"ratio term              = {report.ratio_term:.4f}")
print(f"cosine term             = {report.cosine_term:.4f}")

print(f"upper bound (a/b+b/a)/2 = {report.ratio_term:.4f}  >= distance {report.rpd:.4f}"
      "  (the ratio term)")

print("\n=== vocabularies only partially overlap ===")
left = EmbeddingMatrix(("cold", "hot", "mild", "rain"), rng.standard_normal((4, 8)))
right = EmbeddingMatrix(("hot", "mild", "snow"), rng.standard_normal((3, 6)))
pair = align_vocabularies(left, right)
print(f"shared vocabulary       = {pair.shared_vocab}")
print(f"coverage                = {pair.coverage_left:.2f} / {pair.coverage_right:.2f}")
print(f"distance on overlap     = {rpd(pair).rpd:.4f}  (dims {pair.left.dim} vs {pair.right.dim})")

print("\n=== per-word view: which words diverge most? ===")
# Shrink to a size where the list is readable.
small_a = random_gaussian_embedding(8, 4, seed=3)
small_b = EmbeddingMatrix(
    small_a.vocab, small_a.matrix + 0.6 * np.random.default_rng(4).standard_normal((8, 4))
)
report = decompose_per_word(AlignedPair(small_a, small_b, small_a.vocab))
print(f"{'word':<6} {'cos':>8} {'weight':>8}")
for entry in report.per_word:
    print(f"{entry.word:<6} {entry.cos_theta_i:8.4f} {entry.w_i:8.4f}")
weighted = sum(p.w_i * p.cos_theta_i for p in report.per_word)
print(f"sum of weighted cosines = {weighted:.6f} = cosine term {report.cosine_term:.6f}")
