"""Test whether two embedding spaces are statistically dependent.

Under the null hypothesis of independence, the distance between two random
spaces of the same shape concentrates tightly around its mean and is close
to normal, so a z-score tells us how surprising an observed distance is.
Each case below is one ``dependence_test`` call: the observed distance, the
null simulated at the pair's shape, the z-test and the decision.
"""

import numpy as np

from rpd import AlignedPair, EmbeddingMatrix, dependence_test, random_gaussian_embedding

n, d = 1000, 100
a = random_gaussian_embedding(n, d, seed=11)
rng = np.random.default_rng(5)
q, r = np.linalg.qr(rng.standard_normal((d, d)))
cases = {
    "two genuinely independent spaces": random_gaussian_embedding(n, d, seed=12),
    "one space is a rotation of the other":
        EmbeddingMatrix(a.vocab, a.matrix @ (q * np.sign(np.diag(r)))),
    "shared structure plus noise":
        EmbeddingMatrix(a.vocab, a.matrix + 1.5 * rng.standard_normal((n, d))),
}
results = [dependence_test(AlignedPair(a, b, a.vocab), replicates=300, seed=0)
           for b in cases.values()]

print("=== the null distribution, simulated at the pairs' shape ===")
null = results[0].null
print(f"mu      = {null.mu:.5f} ± {null.mu_se:.5f}   (leading order 1 - d/n = {1 - d / n:.3f})")
print(f"sigma   = {null.sigma:.5f} ± {null.sigma_se:.5f}")
print(f"skew    = {null.skewness:+.3f}, excess kurtosis = {null.excess_kurtosis:+.3f}"
      f"  (both 0 for a normal law)")

for i, (title, result) in enumerate(zip(cases, results), start=1):
    print(f"\n=== case {i}: {title} ===")
    print(f"observed = {result.observed_rpd:.5f}, z = {result.z:+.2f} ± {result.z_se:.2f}, "
          f"p = {result.p_two_sided:.2e} -> decision: {result.decision}")
