"""Test whether two embedding spaces are statistically dependent.

Under the null hypothesis of independence, the distance between two random
spaces of the same shape concentrates tightly around its mean and is close
to normal, so a z-score tells us how surprising an observed distance is.
"""

import numpy as np

from rpd import (
    AlignedPair,
    EmbeddingMatrix,
    monte_carlo_null,
    random_gaussian_embedding,
    rpd,
    z_test,
)

n, d = 1000, 100

print("=== build the null distribution by simulation ===")
null = monte_carlo_null(n, d, d, replicates=300, seed=0)
print(f"mu      = {null.mu:.5f} ± {null.mu_se:.5f}   (leading order 1 - d/n = {1 - d / n:.3f})")
print(f"sigma   = {null.sigma:.5f}")
print(f"skew    = {null.skewness:+.3f}, excess kurtosis = {null.excess_kurtosis:+.3f}"
      f"  (both 0 for a normal law)")

print("\n=== case 1: two genuinely independent spaces ===")
a = random_gaussian_embedding(n, d, seed=11)
b = random_gaussian_embedding(n, d, seed=12)
observed = rpd(AlignedPair(a, b, a.vocab)).rpd
result = z_test(observed, null)
print(f"observed = {observed:.5f}, z = {result.z:+.2f} ± {result.z_se:.2f}, "
      f"p = {result.p_two_sided:.3f}"
      f" -> reject independence: {result.reject_at_0_01}")

print("\n=== case 2: one space is a rotation of the other ===")
rng = np.random.default_rng(5)
q, r = np.linalg.qr(rng.standard_normal((d, d)))
rotated = EmbeddingMatrix(a.vocab, a.matrix @ (q * np.sign(np.diag(r))))
observed = rpd(AlignedPair(a, rotated, a.vocab)).rpd
result = z_test(observed, null)
print(f"observed = {observed:.5f}, z = {result.z:+.1f}, p = {result.p_two_sided:.2e}"
      f" -> reject independence: {result.reject_at_0_01}")

print("\n=== case 3: shared structure plus noise ===")
noisy = EmbeddingMatrix(a.vocab, a.matrix + 1.5 * rng.standard_normal((n, d)))
observed = rpd(AlignedPair(a, noisy, a.vocab)).rpd
result = z_test(observed, null)
print(f"observed = {observed:.5f}, z = {result.z:+.1f}, p = {result.p_two_sided:.2e}"
      f" -> reject independence: {result.reject_at_0_01}")
