"""Null distribution of RPD between independent random embeddings, and the z-test.

The null model draws pairs of independent Gaussian embeddings matched to the
observed comparison's shape (n, d_left, d_right) and records the RPD of each
pair. A ``NullDistribution`` holds the draws and the moments computed from
them; the z-test reads their mean and standard deviation. Observed
distances many standard deviations below the null mean reject the hypothesis
that two embedding spaces are independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, PreconditionError
from .gram import gram_side
from .metric import rpd_from_sides
from .store import _gaussian_rows

ALPHA = 0.01  # significance level of ``reject_at_0_01`` and ``nulltest``'s decision
_SKEW_THRESHOLD = 0.3
_EXCESS_KURTOSIS_THRESHOLD = 0.6


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
    ``skewness`` and ``excess_kurtosis`` are computed from them once. The
    constructor takes ``(n, d_left, d_right, seed, samples)``; the computed
    fields are declared before ``seed`` because :meth:`to_dict` keeps field order.
    """

    n: int
    d_left: int
    d_right: int
    replicates: int = field(init=False)
    mu: float = field(init=False)
    sigma: float = field(init=False)
    skewness: float = field(init=False)
    excess_kurtosis: float = field(init=False)
    seed: int
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise PreconditionError(
                f"need a 1-D sequence of at least 2 samples, got shape {arr.shape}"
            )
        derived = (tuple(arr.tolist()), arr.size, *_sample_moments(arr))
        names = ("samples", "replicates", "mu", "sigma", "skewness", "excess_kurtosis")
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


def _derived_seed(seed: int, replicate: int, side: int) -> int:
    # Splittable scheme: every (base seed, replicate, side) triple gets an
    # independent stream.
    ss = np.random.SeedSequence([seed, replicate, side])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def monte_carlo_null(
    n: int,
    d_left: int,
    d_right: int,
    replicates: int,
    seed: int,
) -> NullDistribution:
    """Estimate the null RPD distribution by repeated independent draws.

    Each replicate r draws two independent Gaussian embeddings with seeds
    derived from (seed, r, side) and records their RPD (standardization on).
    The result, draws included, is a pure function of the arguments.

    Args:
        n: Vocabulary size of the simulated spaces; must exceed both dims.
        d_left, d_right: Per-side dimensions.
        replicates: Number of draws (>= 2; below 30 triggers a warning).
        seed: Base seed of the splittable stream.
    """
    if n < 1 or d_left < 1 or d_right < 1:
        raise PreconditionError("n, d_left, d_right must be positive")
    if n <= max(d_left, d_right):
        raise PreconditionError(
            f"need n > max(d_left, d_right), got n={n}, d={max(d_left, d_right)}"
        )
    if replicates < 2:
        raise PreconditionError(f"replicates must be >= 2, got {replicates}")
    if replicates < 30:
        warnings.warn(
            f"{replicates} replicates is a noisy estimate; 30+ recommended",
            stacklevel=2,
        )

    def draw(r: int) -> float:
        # The draws of random_gaussian_embedding, without its vocabulary.
        left = _gaussian_rows(n, d_left, _derived_seed(seed, r, 0))
        right = _gaussian_rows(n, d_right, _derived_seed(seed, r, 1))
        return rpd_from_sides(gram_side(left, True, owned=True),
                              gram_side(right, True, owned=True)).rpd

    return NullDistribution(n, d_left, d_right, seed, [draw(r) for r in range(replicates)])


def analytic_null_mean(n: int, d: int) -> float:
    """Leading-order expected RPD of independent isotropic embeddings: 1 - d/n.

    First-order approximation used for sanity checks, not hypothesis tests;
    the Monte Carlo estimate carries the finite-n corrections.
    """
    if d < 1 or n <= d:
        raise PreconditionError(f"need n > d >= 1, got n={n}, d={d}")
    return 1.0 - d / n


@dataclass(frozen=True)
class ZTestResult:
    """Dependence z-test outcome. ``reject_at_0_01`` uses the two-sided p."""

    z: float
    p_two_sided: float
    p_one_sided: float
    reject_at_0_01: bool

    def to_dict(self) -> dict:
        return asdict(self)


def z_test(observed_rpd: float, null: NullDistribution) -> ZTestResult:
    """z = (observed - mu) / sigma against the Gaussian null.

    ``p_two_sided`` is the standard-normal two-tailed probability;
    ``p_one_sided`` is the lower-tail probability (dependence pulls RPD
    below the null mean).
    """
    if null.sigma == 0.0:
        raise DegenerateInputError("null distribution has zero sigma")
    z = (observed_rpd - null.mu) / null.sigma
    p_two = math.erfc(abs(z) / math.sqrt(2.0))
    p_one = 0.5 * math.erfc(-z / math.sqrt(2.0))  # lower tail
    return ZTestResult(
        z=float(z),
        p_two_sided=float(p_two),
        p_one_sided=float(p_one),
        reject_at_0_01=bool(p_two < ALPHA),
    )


@dataclass(frozen=True)
class NormalityDiagnostics:
    skewness: float
    excess_kurtosis: float
    normal_plausible: bool


def normality_diagnostics(null: NullDistribution) -> NormalityDiagnostics:
    """Moment-based normality check of the stored draws.

    ``normal_plausible`` is true when |skewness| < 0.3 and
    |excess kurtosis| < 0.6, heuristic thresholds sized for a few hundred
    draws.

    Raises:
        PreconditionError: fewer than 100 replicates.
        DegenerateInputError: all samples identical (moments undefined).
    """
    if null.replicates < 100:
        raise PreconditionError(
            f"need >= 100 replicates for diagnostics, got {null.replicates}"
        )
    skew, exkurt = null.skewness, null.excess_kurtosis
    if math.isnan(skew):
        raise DegenerateInputError("all samples identical; skewness undefined")
    plausible = abs(skew) < _SKEW_THRESHOLD and abs(exkurt) < _EXCESS_KURTOSIS_THRESHOLD
    return NormalityDiagnostics(
        skewness=skew,
        excess_kurtosis=exkurt,
        normal_plausible=plausible,
    )
