import math
import warnings

import numpy as np
import pytest
from scipy import stats

from minregime import bias
from minregime import (
    BiasModel,
    InvalidModel,
    QuadratureFailed,
    bias_asymptotic,
    bias_exact,
    expected_min_exact,
    gumbel_constants,
    gumbel_limit_diagnostic,
    simulate_min_model,
)

MIN_OF_TWO = -1.0 / math.sqrt(math.pi)  # analytic E[min of 2 std normals]


def direct_min_of_normals(model, trials, seed):
    """Reference sampler: draw all N normals of each trial and take their
    minimum over the s normals of each group, then over the n_s groups."""
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.standard_normal((trials, model.n_s, model.s))
    return model.mu + model.sigma * draws.min(axis=2).min(axis=1)


class ExtremeUniforms:
    """Stand-in generator whose uniforms include both ends of numpy's grid
    {k * 2^-53 : k = 0..2^53 - 1}, whatever seed it is given."""

    VALUES = np.array([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])

    def __init__(self, bit_generator):
        pass

    def random(self, size):
        return np.resize(self.VALUES, size)


class TestExpectedMinExact:
    def test_single_normal(self):
        assert expected_min_exact(BiasModel(0, 1, 1, 1)) == pytest.approx(0.0, abs=1e-9)

    def test_min_of_two_analytic(self):
        got = expected_min_exact(BiasModel(0, 1, 1, 2))
        assert got == pytest.approx(MIN_OF_TWO, rel=1e-9)

    def test_location_scale(self):
        for N in (1, 3, 10, 50):
            base = expected_min_exact(BiasModel(0, 1, 1, N))
            shifted = expected_min_exact(BiasModel(0.5, 2.0, 1, N))
            assert shifted == pytest.approx(0.5 + 2.0 * base, abs=1e-10)

    def test_grouping_only_matters_through_product(self):
        assert expected_min_exact(BiasModel(0, 1, 2, 5)) == \
            pytest.approx(expected_min_exact(BiasModel(0, 1, 1, 10)), abs=1e-12)

    def test_monte_carlo_cross_check(self):
        model = BiasModel(0.5, 2.0, 1, 10)
        sample = simulate_min_model(model, 2 * 10 ** 6, seed=17)
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - expected_min_exact(model)) <= 3 * se


#: E[min of N std normals]: closed forms (David & Nagaraja, 2003) and
#: 40-digit mpmath values
CLOSED_FORMS = {
    3: -3.0 / (2.0 * math.sqrt(math.pi)),
    4: -(6.0 / math.pi ** 1.5) * math.atan(math.sqrt(2.0)),
    5: -(5.0 / (4.0 * math.sqrt(math.pi)))
       * (1.0 + (6.0 / math.pi) * math.asin(1.0 / 3.0)),
}
REFERENCES = {
    6: -1.2672063606114712976,
    7: -1.3521783756069043992,
    100: -2.5075936364416843725,
    1000: -3.2414357691334408614,
    10 ** 6: -4.8628974861964627212,
    10 ** 12: -7.1124636847674710331,
    10 ** 30: -11.513375437044343465,
    10 ** 100: -21.300425915226434765,
    10 ** 200: -30.224647239363466518,
    10 ** 300: -37.062646206645245147,
    2 ** 1023: -37.553183499382771053,
}


class TestStdExpectedMin:
    @pytest.mark.parametrize("N", list(CLOSED_FORMS))
    def test_closed_forms(self, N):
        assert bias._std_expected_min(N) == pytest.approx(CLOSED_FORMS[N],
                                                          abs=1e-12)

    @pytest.mark.parametrize("N", list(REFERENCES),
                             ids=["6", "7", "100", "1000", "1e6", "1e12",
                                  "1e30", "1e100", "1e200", "1e300", "2^1023"])
    def test_high_precision_references(self, N):
        # the log-density window placed by the Gumbel constants was off
        # by 5e-8 to 8e-8 from 1e100 up, and overflowed at 2^1023;
        # scipy.integrate.quad over [0, inf) was off by up to 1.1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bias._std_expected_min(N)
        assert got == pytest.approx(REFERENCES[N], abs=1e-12)

    def test_strictly_decreasing_in_n(self):
        # positive weights on an integrand that rises with N at every node
        grid = [*range(2, 3001), *(10 ** k for k in range(4, 308)), 2 ** 1023]
        values = [bias._std_expected_min(N) for N in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_inaccurate_quadrature_raises(self, monkeypatch):
        # an integrand of 2e-6 on odd nodes and 0 on even ones: the rule on
        # the even nodes reads 0, the full rule 1e-6, as the odd nodes'
        # weights times the step sum to half of Int_0^inf e^-t dt
        monkeypatch.setattr(bias, "_max_of_normals",
                            lambda log_v, N: 2e-6 * (np.arange(log_v.size) % 2))
        with pytest.raises(QuadratureFailed, match="quadrature error 1.00e-06"):
            bias._std_expected_min(10)


class TestBiasExact:
    def test_n1_zero(self):
        assert bias_exact(BiasModel(0, 1, 1, 1)) == pytest.approx(0.0, abs=1e-9)

    def test_n1_positive_zero(self):
        assert math.copysign(1.0, bias_exact(BiasModel(0, 1, 1, 1))) == 1.0

    def test_n2_analytic(self):
        assert bias_exact(BiasModel(0, 1, 1, 2)) == pytest.approx(-MIN_OF_TWO, rel=1e-9)

    def test_linear_in_sigma(self):
        for N in (2, 7, 40):
            b1 = bias_exact(BiasModel(0, 1, 1, N))
            b2 = bias_exact(BiasModel(0, 2, 1, N))
            assert b2 == pytest.approx(2 * b1, rel=1e-10)

    def test_nonnegative_and_increasing_in_n(self):
        prev = -1.0
        for N in range(1, 101):
            b = bias_exact(BiasModel(0, 1, 1, N))
            assert b >= 0
            assert b > prev
            prev = b


class TestGumbelConstants:
    def test_million(self):
        c = gumbel_constants(10 ** 6)
        # closed form: sqrt(2 ln 1e6) = 5.2565, correction 0.4905
        assert c.b == pytest.approx(4.766005760566718, rel=1e-12)
        assert c.a == pytest.approx(0.20981930157824477, rel=1e-12)
        assert c.a == pytest.approx(1.0 / c.b, rel=1e-15)

    def test_monotone_in_n(self):
        values = [gumbel_constants(N).b for N in range(8, 2000, 7)]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_mills_self_consistency(self):
        # substituting b back: N * phi(b) / b should be near 1
        for N in (10 ** 3, 10 ** 4, 10 ** 6):
            b = gumbel_constants(N).b
            ratio = N * stats.norm.pdf(b) / b
            assert 0.8 <= ratio <= 1.25

    def test_domain(self):
        with pytest.raises(InvalidModel):
            gumbel_constants(1)


class TestBiasAsymptotic:
    def test_relative_error_bounds(self):
        errs = []
        for N in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            model = BiasModel(0, 1, 1, N)
            exact = bias_exact(model)
            errs.append(abs(bias_asymptotic(model) - exact) / exact)
        assert errs[1] <= 0.05   # N = 1e4
        assert errs[3] <= 0.03   # N = 1e6
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_positive_sign_convention(self):
        assert bias_asymptotic(BiasModel(0, 1, 1, 100)) > 0

    def test_domain(self):
        with pytest.raises(InvalidModel):
            bias_asymptotic(BiasModel(0, 1, 1, 2))


class TestSimulateMinModel:
    def test_n1_mean(self):
        sample = simulate_min_model(BiasModel(0.3, 1, 1, 1), 10 ** 6, seed=1)
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - 0.3) <= 3 * se

    def test_n2_analytic(self):
        sample = simulate_min_model(BiasModel(0, 1, 1, 2), 10 ** 6, seed=2)
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - MIN_OF_TWO) <= 3 * se

    def test_grouped_equals_flat_distribution(self):
        # the law of Z depends on the grouping only through N, and so does
        # the sampler
        grouped = simulate_min_model(BiasModel(0, 1, 2, 5), 50_000, seed=3)
        flat = simulate_min_model(BiasModel(0, 1, 1, 10), 50_000, seed=3)
        assert np.array_equal(grouped, flat)

    @pytest.mark.parametrize("s,n_s", [(1, 1), (2, 5), (1, 100), (3, 40)])
    def test_matches_direct_draw(self, s, n_s):
        model = BiasModel(0.2, 1.5, s, n_s)
        sample = simulate_min_model(model, 50_000, seed=3)
        direct = direct_min_of_normals(model, 50_000, seed=4)
        assert stats.ks_2samp(sample, direct).pvalue > 0.01

    @pytest.mark.parametrize("N", [1, 10 ** 9,
                                   pytest.param(2 ** 1021, id="2^1021"),
                                   pytest.param(2 ** 1023, id="2^1023")])
    def test_extreme_uniforms_give_finite_draws(self, monkeypatch, N):
        monkeypatch.setattr(np.random, "Generator", ExtremeUniforms)
        z = simulate_min_model(BiasModel(0, 1, 1, N), 4)
        assert np.isfinite(z).all()
        # Z falls as V = 1 - U rises, and U = 0 stays the lowest draw; from
        # N = 2^1021 on, log V / N of the top V's underflows to -0.0, held
        # at -5e-324, so their draws tie
        if N < 2 ** 1021:
            assert np.all(np.diff(z) > 0)
        else:
            assert np.all(np.diff(z) >= 0)

    def test_finite_and_unbiased_at_a_billion(self):
        model = BiasModel(0, 1, 1, 10 ** 9)
        sample = simulate_min_model(model, 10 ** 5, seed=8)
        assert np.isfinite(sample).all()
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - expected_min_exact(model)) <= 3 * se

    def test_reproducible(self):
        a = simulate_min_model(BiasModel(0, 1, 1, 5), 1000, seed=9)
        b = simulate_min_model(BiasModel(0, 1, 1, 5), 1000, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 5, 301])
    def test_shared_draws_match_per_model_calls(self, seed):
        # one seed's log-uniforms, drawn once and transformed for each N,
        # are each N's own simulate_min_model sample to the bit
        log_v = bias._log_uniforms(4000, seed)
        for N in (1, 2, 5, 100, 10 ** 6):
            model = BiasModel(0.3, 2.0, 1, N)
            assert np.array_equal(bias._min_draws(model, log_v),
                                  simulate_min_model(model, 4000, seed))

    def test_location_equivariance_paired_seeds(self):
        a = simulate_min_model(BiasModel(0.0, 1, 1, 20), 5000, seed=6)
        b = simulate_min_model(BiasModel(0.7, 1, 1, 20), 5000, seed=6)
        assert np.allclose(b - a, 0.7, atol=1e-12)


class TestGumbelLimitDiagnostic:
    def test_drift_strictly_decreasing(self):
        diag = gumbel_limit_diagnostic(BiasModel(0, 1, 1, 10 ** 4),
                                       trials=5_000, seed=11)
        means = [m for _, m, _ in diag.drift]
        ses = [se for _, _, se in diag.drift]
        for (m1, s1), (m2, s2) in zip(zip(means, ses), zip(means[1:], ses[1:])):
            assert m2 < m1 - 3 * math.hypot(s1, s2)

    def test_ks_distance_shrinks(self):
        small = gumbel_limit_diagnostic(BiasModel(0, 1, 1, 100),
                                        trials=10_000, seed=21)
        large = gumbel_limit_diagnostic(BiasModel(0, 1, 1, 10 ** 5),
                                        trials=10_000, seed=22)
        assert large.ks_distance <= 0.05
        assert large.ks_distance < small.ks_distance

    @pytest.mark.parametrize("seed", [0, 7, 301])
    @pytest.mark.parametrize("N,trials", [(10, 200), (1000, 2000),
                                          (10 ** 5, 3000)])
    def test_ks_distance_is_kstest_statistic(self, seed, N, trials):
        model = BiasModel(0.1, 1.5, 1, N)
        z = simulate_min_model(model, trials, seed=seed)
        consts = gumbel_constants(N)
        standardized = ((z - model.mu) / model.sigma + consts.b) / consts.a
        want = stats.kstest(standardized, stats.gumbel_l.cdf).statistic
        diag = gumbel_limit_diagnostic(model, trials, seed=seed)
        assert diag.ks_distance == want

    def test_domain(self):
        with pytest.raises(InvalidModel):
            gumbel_limit_diagnostic(BiasModel(0, 1, 1, 5), trials=100)

    def test_one_draw_has_no_standard_error(self):
        # the drift table's standard error needs two draws; the error
        # names the count, and numpy's ddof warning never runs
        with pytest.raises(InvalidModel, match="needs >= 2 draws, got 1"):
            gumbel_limit_diagnostic(BiasModel(0, 1, 1, 100), trials=1)


class TestBiasModel:
    def test_effective_count(self):
        assert BiasModel(0, 1, 3, 7).N == 21

    def test_invalid_sigma(self):
        with pytest.raises(InvalidModel):
            BiasModel(0, 0.0, 1, 1)
