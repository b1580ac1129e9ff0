import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from conftest import reference_null
from rpd import (
    AlignedPair,
    DegenerateInputError,
    EmbeddingMatrix,
    NullDistribution,
    PreconditionError,
    __version__,
    align_vocabularies,
    dependence_test,
    load_embeddings,
    monte_carlo_null,
    random_gaussian_embedding,
    rpd,
    save_embeddings,
    z_test,
)
from rpd.cli import main
from rpd.nullmodel import _derived_seed, _sample_moments


class TestMonteCarloNull:
    def test_calibration_against_analytic_mean(self):
        null = monte_carlo_null(1000, 100, 100, replicates=300, seed=7)
        assert null.mu == pytest.approx(0.900, abs=0.01)
        assert null.sigma < 0.01

    def test_minimal_replicates_draw_without_warning(self):
        # A small count's noise is in mu_se and sigma_se, not in a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            null = monte_carlo_null(50, 5, 5, replicates=2, seed=1)
        assert null.replicates == 2
        assert null.sigma >= 0

    def test_deterministic(self):
        a = monte_carlo_null(120, 10, 10, replicates=40, seed=3)
        b = monte_carlo_null(120, 10, 10, replicates=40, seed=3)
        assert a.mu == b.mu
        assert a.sigma == b.sigma
        assert a.samples == b.samples

    def test_seed_changes_samples(self):
        a = monte_carlo_null(120, 10, 10, replicates=40, seed=3)
        b = monte_carlo_null(120, 10, 10, replicates=40, seed=4)
        assert a.samples != b.samples

    def test_mixed_dimensions(self):
        null = monte_carlo_null(200, 10, 25, replicates=50, seed=5)
        assert null.d_left == 10 and null.d_right == 25
        # Unequal dims push the Gram-norm ratio term above 1.
        ratio_bound = 0.5 * (math.sqrt(10 / 25) + math.sqrt(25 / 10))
        assert 0.0 < null.mu < ratio_bound + 1e-2

    def test_equal_dims_mean_below_one(self):
        null = monte_carlo_null(400, 8, 8, replicates=60, seed=6)
        assert 0.0 < null.mu < 1.0 + 1e-3

    def test_samples_match_moments(self):
        null = monte_carlo_null(100, 8, 8, replicates=64, seed=2)
        arr = np.array(null.samples)
        assert arr.mean() == pytest.approx(null.mu, abs=1e-12)
        assert arr.std(ddof=1) == pytest.approx(null.sigma, abs=1e-12)

    def test_consistency_with_analytic_mean(self):
        for n, d, seed in ((1000, 100, 1), (1500, 50, 2), (1200, 30, 3)):
            null = monte_carlo_null(n, d, d, replicates=60, seed=seed)
            # Leading order of the isotropic null mean: 1 - d/n.
            assert abs(null.mu - (1.0 - d / n)) < 5 * max(null.sigma, 0.002)

    def test_convergence_with_replicates(self):
        # Doubling the replicate count moves the mean by less than three
        # standard errors in at least 95% of seeds.
        hits = 0
        trials = 20
        for seed in range(trials):
            half = monte_carlo_null(80, 6, 6, replicates=100, seed=seed)
            full = monte_carlo_null(80, 6, 6, replicates=200, seed=seed)
            if abs(full.mu - half.mu) < 3.0 * half.sigma / math.sqrt(100):
                hits += 1
        assert hits >= int(0.95 * trials)

    def test_invalid_sizes(self):
        with pytest.raises(PreconditionError):
            monte_carlo_null(10, 10, 5, replicates=50, seed=0)  # n <= d_left
        with pytest.raises(PreconditionError):
            monte_carlo_null(100, 10, 10, replicates=1, seed=0)
        with pytest.raises(PreconditionError):
            monte_carlo_null(0, 1, 1, replicates=50, seed=0)

    def test_negative_seed(self):
        with pytest.raises(PreconditionError, match=r"^seed must be >= 0, got -1$"):
            monte_carlo_null(50, 5, 5, replicates=30, seed=-1)

    @pytest.mark.parametrize("n, d_left, d_right", [(90, 7, 9), (20, 12, 15)])
    def test_draws_are_bartlett_factors(self, n, d_left, d_right):
        # Each stored sample is the RPD of the column blocks of that
        # replicate's Bartlett factor, rebuilt from its own derived seed,
        # independent of collection order; (20, 12, 15) has n < d_left + d_right.
        null = monte_carlo_null(n, d_left, d_right, replicates=5, seed=13)
        p = d_left + d_right
        k = min(n, p)
        for r, sample in enumerate(null.samples):
            rng = np.random.default_rng(_derived_seed(13, r))
            upper = rng.standard_normal((k, p))
            diagonal = np.sqrt(rng.chisquare(n - np.arange(k)))
            factor = np.zeros((k, p))
            for i in range(k):
                factor[i, i] = diagonal[i]
                factor[i, i + 1:] = upper[i, i + 1:]
            left = EmbeddingMatrix(tuple(map(str, range(k))), factor[:, :d_left])
            right = EmbeddingMatrix(left.vocab, factor[:, d_left:])
            assert rpd(AlignedPair(left, right, left.vocab)).rpd == sample

    def test_memory_does_not_grow_with_n(self):
        # A draw holds min(n, p)×p values; two direct n-row draws at this n
        # would hold 80 MB.
        tracemalloc.start()
        try:
            monte_carlo_null(10**6, 5, 5, replicates=30, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def direct_null_samples(n, d_left, d_right, replicates, seed):
    """The slow oracle: RPDs of pairs of independent n-row Gaussian embeddings."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(replicates):
        left = random_gaussian_embedding(n, d_left, rng.integers(2**63))
        right = random_gaussian_embedding(n, d_right, rng.integers(2**63))
        samples.append(rpd(AlignedPair(left, right, left.vocab)).rpd)
    return np.array(samples)


class TestDirectDrawOracle:
    # (20, 12, 15) has max(d) < n < d_left + d_right, where the factor is
    # trapezoidal rather than triangular.
    @pytest.mark.parametrize("shape", [(90, 7, 9), (20, 12, 15), (300, 10, 15), (40, 30, 35)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_same_law_as_direct_draws(self, shape):
        draws = 1000
        fast = np.array(monte_carlo_null(*shape, replicates=draws, seed=1).samples)
        slow = direct_null_samples(*shape, draws, seed=2)
        assert stats.ks_2samp(fast, slow).pvalue > 1e-3
        mu, sigma = fast.mean(), fast.std(ddof=1)
        se_mu = math.hypot(sigma, slow.std(ddof=1)) / math.sqrt(draws)
        assert abs(mu - slow.mean()) < 4 * se_mu
        # For near-normal draws var(log s) is about 1/(2(R - 1)) per sample, so
        # the log ratio of two has variance about 1/(R - 1).
        assert abs(math.log(sigma / slow.std(ddof=1))) < 4 / math.sqrt(draws - 1)


class TestMonteCarloError:
    def test_standard_errors_match_spread_across_seeds(self):
        # Over 200 seeds, the spread of each estimate matches the mean of its
        # reported standard error. The sample sd of 200 values is itself
        # uncertain by about 5%; over four blocks of 200 seeds the measured
        # ratios were 0.96-1.15 (mu), 1.00-1.09 (sigma) and 0.99-1.12 (z).
        nulls = [monte_carlo_null(60, 5, 5, replicates=100, seed=s) for s in range(200)]
        mu = np.array([null.mu for null in nulls])
        sigma = np.array([null.sigma for null in nulls])
        assert 0.8 < mu.std(ddof=1) / np.mean([null.mu_se for null in nulls]) < 1.25
        assert 0.8 < sigma.std(ddof=1) / np.mean([null.sigma_se for null in nulls]) < 1.25
        for shift in (-3.0, 3.0):
            results = [z_test(mu.mean() + shift * sigma.mean(), null) for null in nulls]
            z = np.array([result.z for result in results])
            assert 0.8 < z.std(ddof=1) / np.mean([result.z_se for result in results]) < 1.25

    def test_standard_error_formulas(self):
        samples = np.random.default_rng(4).gamma(2.0, size=300)
        null = NullDistribution(100, 10, 10, 0, samples)
        r = null.replicates
        assert null.mu_se == pytest.approx(null.sigma / math.sqrt(r), rel=1e-12)
        kurtosis = null.excess_kurtosis + 3.0
        assert null.sigma_se**2 == pytest.approx(null.sigma**2 * (kurtosis - 1) / (4 * r),
                                                 rel=1e-12)
        for observed in (null.mu - 2 * null.sigma, null.mu, null.mu + 5 * null.sigma):
            result = z_test(observed, null)
            # (1, z) times the covariance of (mu, sigma) in units of sigma²/R.
            expected = (1 + result.z * null.skewness + result.z**2 * (kurtosis - 1) / 4) / r
            assert result.z_se == pytest.approx(math.sqrt(expected), rel=1e-12)

    @pytest.mark.parametrize("samples, message", [
        # numpy's float64 cast keeps 0.5 of 0.5+1j, with only a ComplexWarning.
        (np.array([0.5 + 1j, 0.25]), "samples must hold real numbers, got dtype complex128"),
        (["0.5", "0.25"], f"samples must hold real numbers, got dtype {np.dtype('U4')}"),
        ([0.5, [0.25, 0.5]], "samples must be rectangular, not ragged sequences"),
    ], ids=["complex", "str", "ragged"])
    def test_non_real_samples_rejected(self, samples, message):
        with pytest.raises(PreconditionError) as exc:
            NullDistribution(100, 10, 10, 0, samples)
        assert str(exc.value) == message

    def test_standard_errors_of_identical_samples(self):
        null = NullDistribution(100, 10, 10, 0, [0.5] * 10)
        assert null.mu_se == 0.0
        assert math.isnan(null.sigma_se)


class TestZTest:
    def test_reported_example(self):
        result = z_test(0.511, reference_null())
        assert abs(result.z) == pytest.approx(442.0, abs=0.5)
        assert result.p_two_sided < 1e-100
        assert result.reject_at_0_01

    def test_observed_equals_mean(self):
        result = z_test(0.953, reference_null())
        assert result.z == 0.0
        assert result.p_two_sided == 1.0
        assert not result.reject_at_0_01

    def test_alpha_boundary(self):
        null = reference_null()
        result = z_test(null.mu + 2.576 * null.sigma, null)
        assert result.p_two_sided == pytest.approx(0.01, abs=1e-3)

    def test_affine_reconstruction(self):
        null = reference_null()
        for observed in (0.1, 0.5, 0.953, 1.2):
            result = z_test(observed, null)
            assert result.z * null.sigma + null.mu == pytest.approx(observed, abs=1e-12)

    def test_one_sided_lower_tail(self):
        result = z_test(0.951, reference_null())
        assert result.z == pytest.approx(-2.0, abs=1e-9)
        assert result.p_one_sided == pytest.approx(0.5 * math.erfc(2 / math.sqrt(2)), rel=1e-12)

    def test_zero_sigma(self):
        null = reference_null(sigma=0.0)
        with pytest.raises(DegenerateInputError):
            z_test(0.5, null)


class TestNormalityDiagnostics:
    """The skewness and excess kurtosis a null reports, which show how normal it is."""

    def test_simulated_null_is_plausible(self):
        null = monte_carlo_null(1000, 100, 100, replicates=300, seed=17)
        assert abs(null.skewness) < 0.3
        assert abs(null.excess_kurtosis) < 0.6

    def test_identical_samples_degenerate(self):
        null = NullDistribution(100, 10, 10, 0, [0.5] * 200)
        assert math.isnan(null.skewness)
        assert math.isnan(null.excess_kurtosis)

    def test_exponential_shape_rejected(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(scale=1.0, size=400)
        null = NullDistribution(100, 10, 10, 0, samples)
        assert null.skewness > 1.0
        assert null.excess_kurtosis > 0.6


class TestNullDistributionType:
    def test_moments_derived_from_samples(self):
        samples = np.random.default_rng(3).exponential(size=50)
        null = NullDistribution(100, 10, 10, 0, samples)
        moments = (null.mu, null.sigma, null.skewness, null.excess_kurtosis)
        assert moments == _sample_moments(samples)
        assert null.replicates == 50
        assert null.samples == tuple(samples.tolist())
        assert all(type(v) is float for v in null.samples)

    @pytest.mark.parametrize("samples", [[[0.1, 0.2], [0.3, 0.4]], [0.5], []])
    def test_rejects_non_vector_or_single_sample(self, samples):
        with pytest.raises(PreconditionError):
            NullDistribution(100, 10, 10, 0, samples)

    def test_samples_copied_at_construction(self):
        draws = [0.1, 0.2, 0.3]
        null = NullDistribution(100, 10, 10, 0, draws)
        draws[0] = 9.0
        assert null.samples == (0.1, 0.2, 0.3)
        assert null.mu == _sample_moments(np.array([0.1, 0.2, 0.3]))[0]

    def test_save_samples_round_trip(self, tmp_path):
        null = monte_carlo_null(80, 6, 6, replicates=40, seed=9)
        path = tmp_path / "draws.txt"
        null.save_samples(path)
        values = [float(v) for v in path.read_text().split()]
        np.testing.assert_allclose(values, null.samples, rtol=0, atol=0)

    def test_json_fields(self):
        null = monte_carlo_null(80, 6, 6, replicates=40, seed=9)
        payload = null.to_dict()
        assert set(payload) == {
            "n", "d_left", "d_right", "replicates", "mu", "sigma",
            "skewness", "excess_kurtosis", "mu_se", "sigma_se", "seed",
        }
        assert len(null.samples) == 40


def padded_pair(real, pad_words):
    """The aligned pair of ``real`` with ``pad_words`` more words, all zero on both sides."""
    pad = tuple(f"pad{i}" for i in range(pad_words))
    return align_vocabularies(*(
        EmbeddingMatrix(e.vocab + pad, np.vstack([e.matrix, np.zeros((pad_words, e.dim))]))
        for e in real))


class TestDependenceTest:
    def test_shared_zero_rows_leave_the_test_unchanged(self):
        real = [random_gaussian_embedding(200, 20, seed=s) for s in (300, 400)]
        plain = dependence_test(align_vocabularies(*real), replicates=100, seed=0)
        padded = dependence_test(padded_pair(real, 200), replicates=100, seed=0)
        assert (padded.zero_rows_left, padded.zero_rows_right) == (200, 200)
        assert (plain.zero_rows_left, plain.zero_rows_right) == (0, 0)
        assert padded.null == plain.null and plain.null.n == 200
        got = replace(padded, zero_rows_left=0, zero_rows_right=0).to_dict()
        want = plain.to_dict()
        assert got.pop("null") == want.pop("null")
        assert got == pytest.approx(want, rel=1e-12)

    def test_to_dict_is_the_nulltest_report(self, tmp_path):
        paths = []
        for seed in (1, 2):
            paths.append(str(tmp_path / f"e{seed}.txt"))
            save_embeddings(random_gaussian_embedding(60, 5, seed=seed), paths[-1])
        result = CliRunner().invoke(main, ["nulltest", "--left", paths[0], "--right", paths[1],
                                           "--replicates", "30", "--seed", "4"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload.pop("version") == __version__
        record = dependence_test(align_vocabularies(*map(load_embeddings, paths)),
                                 replicates=30, seed=4)
        assert list(record.to_dict()) == list(payload)
        assert json.loads(json.dumps(record.to_dict())) == payload

    def test_one_sided_changes_only_the_decision(self, monkeypatch):
        pair = align_vocabularies(random_gaussian_embedding(50, 6, seed=1),
                                  random_gaussian_embedding(50, 6, seed=2))
        observed = rpd(pair).rpd
        # Draws with mean observed + 2.4 sigma put z at -2.4, where
        # p_one_sided (0.008) < 0.01 < p_two_sided (0.016).
        draws = observed + 0.01 * np.array([1.4, 2.4, 3.4])
        monkeypatch.setattr("rpd.nullmodel.monte_carlo_null",
                            lambda n, d_left, d_right, replicates, seed:
                            NullDistribution(n, d_left, d_right, seed, draws))
        two = dependence_test(pair, replicates=3, seed=0)
        one = dependence_test(pair, replicates=3, seed=0, one_sided=True)
        assert (two.decision, one.decision) == ("fail_to_reject", "reject")
        assert replace(one, decision=two.decision) == two

    def test_same_seed_same_record(self):
        pair = align_vocabularies(random_gaussian_embedding(80, 6, seed=1),
                                  random_gaussian_embedding(80, 7, seed=2))
        first = dependence_test(pair, replicates=40, seed=9)
        assert dependence_test(pair, replicates=40, seed=9) == first
        assert dependence_test(pair, replicates=40, seed=10).null.samples != first.null.samples

    def test_padded_pair_error_names_its_own_count(self):
        # 400 shared words, 390 of them zero on both sides, d = 20.
        real = [random_gaussian_embedding(10, 20, seed=s) for s in (1, 2)]
        with pytest.raises(PreconditionError, match=r"10 of the 400 shared words .*"
                                                    r"\(390 dropped\), d=20"):
            dependence_test(padded_pair(real, 390), replicates=30, seed=0)
