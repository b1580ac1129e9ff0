"""Null distribution of RPD between independent random embeddings, and the z-test.

The null is the RPD of two independent standard-Gaussian embeddings E₁
(n×d₁) and E₂ (n×d₂) matched to the observed comparison's shape. That
standardized RPD is a function of the Gram matrix of ``[E₁ E₂]`` alone,
which is Wishart(n, I) of size p = d₁+d₂. So each draw samples its Bartlett
factor R, a min(n, p)×p upper-trapezoidal matrix with ``RᵀR`` distributed
exactly as that Gram matrix, and takes the RPD of R's two column blocks:
O(min(n, p)·p²) per draw, independent of n beyond p (Bartlett 1933; Smith &
Hocking 1972, AS 53).

A ``NullDistribution`` holds the draws, the moments computed from them and
their Monte Carlo standard errors; the z-test reads the mean and standard
deviation. Observed distances many standard deviations below the null mean
reject the hypothesis that two embedding spaces are independent.

:func:`dependence_test` is that whole test on an aligned pair, the one
``rpd nulltest`` prints: the observed RPD, the null drawn at the shared words
that are not all zero on both sides, the z-test and the decision at ``ALPHA``.
``monte_carlo_null`` and ``z_test`` are its pieces.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, PreconditionError
from .metric import gram_side, rpd, rpd_from_sides
from .store import AlignedPair, _real

__all__ = [
    "DependenceTestResult",
    "NullDistribution",
    "ZTestResult",
    "dependence_test",
    "monte_carlo_null",
    "z_test",
]

ALPHA = 0.01  # significance level of ``reject_at_0_01`` and ``dependence_test``'s decision


def _sample_moments(samples: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, std with N-1, skewness, excess kurtosis); nan moments when degenerate."""
    mu = float(samples.mean())
    sigma = float(samples.std(ddof=1))
    centered = samples - mu
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return mu, sigma, float("nan"), float("nan")
    skew = float(np.mean(centered**3) / m2**1.5)
    exkurt = float(np.mean(centered**4) / m2**2 - 3.0)
    return mu, sigma, skew, exkurt


@dataclass(frozen=True)
class NullDistribution:
    """RPD draws between independent Gaussian embeddings and their moments.

    ``samples`` (any 1-D sequence of at least 2 values, stored as a tuple of
    floats) are the draws. ``replicates``, ``mu``, ``sigma`` (N-1 divisor),
    ``skewness`` and ``excess_kurtosis`` are computed from them once, and so
    are the Monte Carlo standard errors of the two moments the z-test reads:
    ``mu_se = sigma/√R`` and ``sigma_se = sigma·√((excess_kurtosis + 2)/(4R))``
    (nan when the moments are). The constructor takes
    ``(n, d_left, d_right, seed, samples)``; the computed fields are declared
    before ``seed`` because :meth:`to_dict` keeps field order.
    """

    n: int
    d_left: int
    d_right: int
    replicates: int = field(init=False)
    mu: float = field(init=False)
    sigma: float = field(init=False)
    skewness: float = field(init=False)
    excess_kurtosis: float = field(init=False)
    mu_se: float = field(init=False)
    sigma_se: float = field(init=False)
    seed: int
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(_real(self.samples, "samples"), dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise PreconditionError(
                f"need a 1-D sequence of at least 2 samples, got shape {arr.shape}"
            )
        mu, sigma, skew, exkurt = _sample_moments(arr)
        r = arr.size
        # Var(s) ≈ σ²(κ - 1)/(4R), κ = excess_kurtosis + 3 >= 1 (clamped for
        # roundoff; np.maximum keeps a nan kurtosis nan).
        sigma_se = float(sigma * np.sqrt(np.maximum(exkurt + 2.0, 0.0) / (4 * r)))
        derived = (tuple(arr.tolist()), r, mu, sigma, skew, exkurt,
                   sigma / math.sqrt(r), sigma_se)
        names = ("samples", "replicates", "mu", "sigma", "skewness", "excess_kurtosis",
                 "mu_se", "sigma_se")
        for name, value in zip(names, derived):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """The fields in order, without the draws (see :meth:`save_samples`)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}

    def save_samples(self, path: str | Path) -> None:
        """Write the raw draws, one value per line, for external plotting."""
        with open(Path(path), "w", encoding="utf-8") as fh:
            for v in self.samples:
                fh.write("%.17g\n" % v)


def _derived_seed(seed: int, replicate: int) -> int:
    # Splittable scheme: every (base seed, replicate) pair gets an independent
    # stream. The trailing 0 is part of the seed entropy: without it every
    # draw would change.
    ss = np.random.SeedSequence([seed, replicate, 0])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def monte_carlo_null(
    n: int,
    d_left: int,
    d_right: int,
    replicates: int,
    seed: int,
) -> NullDistribution:
    """Estimate the null RPD distribution by repeated independent draws.

    Replicate r samples, from the stream seeded by ``_derived_seed(seed, r)``,
    the Bartlett factor of the Gram matrix of an n×(d_left + d_right) Gaussian
    matrix: a k×p upper-trapezoidal R (p = d_left + d_right, k = min(n, p))
    with ``√χ²(n - i)`` in diagonal entry i and N(0, 1) entries above the
    diagonal, so that ``RᵀR`` has exactly the law of that Gram matrix. The
    draw is the standardized RPD of R's first d_left and last d_right columns,
    which equals the RPD of the two Gaussian spaces they stand for. A draw
    costs O(k·p²) and holds k×p values, independent of n beyond p. The
    result, draws included, is a pure function of the arguments.

    Args:
        n: Vocabulary size of the simulated spaces; must exceed both dims.
        d_left, d_right: Per-side dimensions.
        replicates: Number of draws (>= 2). Their noise is carried in the
            result's ``mu_se`` and ``sigma_se``, which :func:`z_test` turns
            into ``z_se``.
        seed: Base seed of the splittable stream (>= 0).
    """
    if n < 1 or d_left < 1 or d_right < 1:
        raise PreconditionError("n, d_left, d_right must be positive")
    if n <= max(d_left, d_right):
        raise PreconditionError(
            f"need n > max(d_left, d_right), got n={n}, d={max(d_left, d_right)}"
        )
    if replicates < 2:
        raise PreconditionError(f"replicates must be >= 2, got {replicates}")
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    p = d_left + d_right
    k = min(n, p)

    def draw(r: int) -> float:
        rng = np.random.default_rng(_derived_seed(seed, r))
        factor = np.triu(rng.standard_normal((k, p)), 1)
        np.fill_diagonal(factor, np.sqrt(rng.chisquare(n - np.arange(k))))
        # Standardization's n cancels in the ratio term, so k rows give the same RPD.
        return rpd_from_sides(gram_side(factor[:, :d_left], "left"),
                              gram_side(factor[:, d_left:], "right")).rpd

    return NullDistribution(n, d_left, d_right, seed, [draw(r) for r in range(replicates)])


@dataclass(frozen=True)
class ZTestResult:
    """Dependence z-test outcome. ``reject_at_0_01`` uses the two-sided p.

    ``z_se`` is the Monte Carlo standard error of ``z`` from the finite null
    sample (see :func:`z_test`).
    """

    z: float
    z_se: float
    p_two_sided: float
    p_one_sided: float
    reject_at_0_01: bool

    def to_dict(self) -> dict:
        return asdict(self)


def z_test(observed_rpd: float, null: NullDistribution) -> ZTestResult:
    """z = (observed - mu) / sigma against the Gaussian null.

    ``p_two_sided`` is the standard-normal two-tailed probability;
    ``p_one_sided`` is the lower-tail probability (dependence pulls RPD
    below the null mean). ``z_se`` propagates the null's ``mu_se`` and
    ``sigma_se`` by the delta method, with the μ̂–σ̂ covariance
    ``skewness·σ²/(2R)``:

        z_se² = (mu_se² + z²·sigma_se² + z·skewness·σ²/R) / σ²
    """
    if null.sigma == 0.0:
        raise DegenerateInputError("null distribution has zero sigma")
    sigma = null.sigma
    z = (observed_rpd - null.mu) / sigma
    # A variance, so >= 0 by Pearson's inequality κ >= skewness² + 1; clamp roundoff.
    var = (null.mu_se**2 + z * z * null.sigma_se**2
           + z * null.skewness * sigma**2 / null.replicates)
    p_two = math.erfc(abs(z) / math.sqrt(2.0))
    p_one = 0.5 * math.erfc(-z / math.sqrt(2.0))  # lower tail
    return ZTestResult(
        z=float(z),
        z_se=math.sqrt(max(var, 0.0)) / sigma,
        p_two_sided=float(p_two),
        p_one_sided=float(p_one),
        reject_at_0_01=bool(p_two < ALPHA),
    )


@dataclass(frozen=True)
class DependenceTestResult:
    """The dependence test of an aligned pair, in the order ``rpd nulltest`` prints it.

    ``observed_rpd`` is the pair's RPD; the coverage and zero-row counts are
    :meth:`AlignedPair.provenance`; ``null`` was drawn at the shared words
    that are not all zero on both sides (its ``n``); ``z`` to
    ``reject_at_0_01`` are the :class:`ZTestResult` fields; ``decision`` is
    ``"reject"`` when the two-sided p-value, or the lower-tail one for a
    one-sided test, is below ``alpha``, and ``"fail_to_reject"`` otherwise.
    """

    observed_rpd: float
    coverage_left: float
    coverage_right: float
    zero_rows_left: int
    zero_rows_right: int
    null: NullDistribution
    z: float
    z_se: float
    p_two_sided: float
    p_one_sided: float
    reject_at_0_01: bool
    alpha: float
    decision: str

    def to_dict(self) -> dict:
        """The fields in order, with ``null`` as its own :meth:`~NullDistribution.to_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "null": self.null.to_dict()}


def dependence_test(
    pair: AlignedPair,
    *,
    replicates: int,
    seed: int,
    one_sided: bool = False,
) -> DependenceTestResult:
    """Test whether the two sides of ``pair`` are independent.

    A word that is all zero on both sides adds nothing to any Gram block, so
    the observed RPD is that of the other words, and the null is drawn at
    their count: padding does not move the test. The null is
    :func:`monte_carlo_null` at that count and the pair's dimensions, the
    z-score is :func:`z_test`'s, and the decision is taken at ``ALPHA`` on
    the two-sided p-value, or on the lower-tail one when ``one_sided``.

    Raises:
        DegenerateInputError: a side has zero variance (from :func:`rpd`).
        PreconditionError: no more words that are not all zero on both sides
            than the larger dimension, fewer than 2 replicates, or a negative seed.
    """
    observed = rpd(pair).rpd
    zero_left, zero_right = pair.zero_rows
    dropped = int(np.count_nonzero(zero_left & zero_right))
    n, d = pair.n - dropped, max(pair.left.dim, pair.right.dim)
    if n <= d:
        raise PreconditionError(
            f"need more words than dimensions: {n} of the {pair.n} shared words are not "
            f"all zero on both sides ({dropped} dropped), d={d}"
        )
    null = monte_carlo_null(n, pair.left.dim, pair.right.dim, replicates, seed)
    result = z_test(observed, null)
    p_for_decision = result.p_one_sided if one_sided else result.p_two_sided
    return DependenceTestResult(
        observed, **pair.provenance(), null=null, **result.to_dict(), alpha=ALPHA,
        decision="reject" if p_for_decision < ALPHA else "fail_to_reject",
    )
