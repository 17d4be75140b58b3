import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccpde.bayes import (
    BetaPosterior,
    PosteriorBatch,
    base_rate_prior,
    beta_cdf,
    beta_quantile,
    posterior_report,
    posterior_reports,
    pseudo_counts,
)
from cccpde.errors import DomainError, ShapeError
from cccpde.flow import FlowStack
from cccpde.numerics import Rng

from helpers import ball_volume, mc_count_estimate, stack_log_density

mp.mp.dps = 30

# the lower tail of a 95% equal-tailed interval, as the posterior computes it
TAIL = 0.5 * (1.0 - 0.95)


def beta_cdf_oracle(x, a, b):
    """Adaptive (tanh-sinh) quadrature of the Beta density.

    The density is evaluated with its normalizer folded into the exponent,
    keeping the integrand near unit scale for large shape parameters.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_norm = mp.log(mp.beta(a, b))
    val = mp.quad(
        lambda t: mp.e ** ((a - 1) * mp.log(t) + (b - 1) * mp.log(1 - t)
                           - log_norm),
        [0, x])
    return float(val)


def beta_cdf_window_oracle(x, a, b):
    """I_x(a, b) at the exact double x, for any shape size.

    Quadrature of the density over a window of 40 sd around the mean, with
    mp.loggamma normalizers and a working precision that grows with
    log10(a + b), so that (a - 1) log t keeps its units digit. (mp.betainc
    fails to converge or returns garbage at these sizes.) The window grows
    by 50 / (a + b) on each side: with one small shape the distribution is
    gamma-like, and its tail beyond 40 sd can still exceed 1e-12.
    """
    with mp.workdps(20 + int(math.log10(a + b))):
        a_, b_, x_ = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        s = a_ + b_
        mean = a_ / s
        sd = mp.sqrt(a_ * b_ / (s * s * (s + 1)))
        half = 40 * sd + 50 / s
        lo = max(mp.mpf(0), mean - half)
        hi = min(mp.mpf(1), mean + half)
        if x_ <= lo:
            return 0.0
        if x_ >= hi:
            return 1.0
        log_norm = mp.loggamma(s) - mp.loggamma(a_) - mp.loggamma(b_)

        def density(t):
            return mp.exp(log_norm + (a_ - 1) * mp.log(t)
                          + (b_ - 1) * mp.log1p(-t))
        # a shape below 1 puts a singularity at the window's end; u = t^a
        # (or (1-t)^b) turns it into a smooth integrand
        if x_ <= mean:
            if lo == 0 and a_ < 1:
                return float(mp.quad(lambda u: mp.exp(
                    log_norm + (b_ - 1) * mp.log1p(-u ** (1 / a_))) / a_,
                    [0, x_ ** a_]))
            return float(mp.quad(density, [lo, x_]))
        if hi == 1 and b_ < 1:
            return float(1 - mp.quad(lambda v: mp.exp(
                log_norm + (a_ - 1) * mp.log1p(-v ** (1 / b_))) / b_,
                [0, (1 - x_) ** b_]))
        return float(1 - mp.quad(density, [x_, hi]))


def beta_quantile_oracle(q, a, b):
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if beta_cdf_oracle(mid, a, b) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def conjugate_update(prior, pos_count, neg_count):
    """The one-row batch `posterior_reports` gives for pseudo-counts
    (neg_count, pos_count): unit density and volume, class sizes equal to
    the counts. Checks that the row's shapes are the prior's plus the row's
    counts, bit for bit."""
    batch = posterior_reports(np.zeros((1, 2)),
                              np.array([neg_count, pos_count], dtype=float),
                              prior, 1.0)
    counts = batch.counts[0]
    assert (batch.a[0], batch.b[0]) == (prior.a + counts[1], prior.b + counts[0])
    return batch


class TestBetaUpdate:
    def test_single_positive(self):
        batch = conjugate_update(BetaPosterior(1.0, 1.0), 1.0, 0.0)
        assert (batch.a[0], batch.b[0]) == (2.0, 1.0)
        assert batch.mean[0] == pytest.approx(2.0 / 3.0)

    def test_zero_counts_keep_prior(self):
        batch = conjugate_update(BetaPosterior(2.5, 0.5), 0.0, 0.0)
        assert (batch.a[0], batch.b[0]) == (2.5, 0.5)

    def test_arithmetic(self):
        batch = conjugate_update(BetaPosterior(1.0, 1.0), 10.0, 30.0)
        assert batch.mean[0] == pytest.approx(11.0 / 42.0, rel=1e-15)

    def test_batched_updates_commute(self):
        # the counts come back from log space (exp(log 7) is 7 + 1 ulp), so
        # the two routes agree to rounding, not bit for bit
        prior = BetaPosterior(0.5, 1.5)
        first = conjugate_update(prior, 3.0, 2.0)
        stepwise = conjugate_update(BetaPosterior(first.a[0], first.b[0]),
                                    4.0, 7.0)
        joint = conjugate_update(prior, 7.0, 9.0)
        assert (stepwise.a[0], stepwise.b[0]) == pytest.approx(
            (joint.a[0], joint.b[0]), rel=1e-15)

    def test_invalid_prior(self):
        with pytest.raises(DomainError):
            BetaPosterior(0.0, 1.0)


class TestPseudoCounts:
    def test_underflow_gives_zero_and_prior_posterior(self):
        counts = pseudo_counts(np.array([-1e9, -800.0]),
                               np.array([100.0, 100.0]), 0.1)
        assert np.array_equal(counts, np.zeros(2))
        batch = posterior_reports(np.array([[-1e9, -800.0]]),
                                  np.array([100.0, 100.0]),
                                  BetaPosterior(1.0, 1.0), 0.1)
        assert (batch.a[0], batch.b[0]) == (1.0, 1.0)

    def test_symmetry_keeps_mean_half(self):
        counts = pseudo_counts(np.array([-2.0, -2.0]),
                               np.array([500.0, 500.0]), 0.2)
        assert counts[0] == counts[1] > 0
        batch = posterior_reports(np.array([[-2.0, -2.0]]),
                                  np.array([500.0, 500.0]),
                                  BetaPosterior(1.0, 1.0), 0.2)
        assert batch.mean[0] == pytest.approx(0.5)

    def test_scaling(self):
        counts = pseudo_counts(np.array([math.log(0.25)]),
                               np.array([1000.0]), 0.04)
        assert counts[0] == pytest.approx(0.04 * 1000.0 * 0.25, rel=1e-12)

    def test_volume_validated(self):
        with pytest.raises(DomainError):
            pseudo_counts(np.zeros(2), np.ones(2), 0.0)

    def test_pointwise_consistent_with_monte_carlo(self):
        # equal neighborhood volumes must give near-equal count estimates
        stack = FlowStack(2, [])
        x = np.array([0.3, -0.2])
        radius = 0.05
        volume = ball_volume(2, radius)
        point = pseudo_counts(stack_log_density(stack, x[None, :]),
                              np.array([2000.0]), volume)[0]
        mc = mc_count_estimate(lambda pts: stack_log_density(stack, pts), x,
                               radius, 2000, Rng(40), 2000.0)
        assert 0.5 < mc / point < 2.0


class TestMcCountEstimate:
    def test_constant_density_is_exact(self):
        kappa = 0.37
        est = mc_count_estimate(
            lambda pts: np.full(pts.shape[0], math.log(kappa)),
            np.zeros(2), 0.5, 500, Rng(41), 120.0)
        assert est == pytest.approx(120.0 * ball_volume(2, 0.5) * kappa,
                                    rel=1e-12)

    def test_small_radius_matches_pointwise(self):
        stack = FlowStack(2, [])
        x = np.array([0.4, 0.1])
        radius = 0.05
        mc = mc_count_estimate(lambda pts: stack_log_density(stack, pts), x,
                               radius, 4000, Rng(42), 1000.0)
        point = (1000.0 * ball_volume(2, radius)
                 * math.exp(float(stack_log_density(stack, x[None, :])[0])))
        assert abs(mc / point - 1.0) < 0.05

    def test_zero_class_count(self):
        est = mc_count_estimate(lambda pts: np.zeros(pts.shape[0]),
                                np.zeros(2), 0.1, 200, Rng(43), 0.0)
        assert est == 0.0

    def test_draw_floor(self):
        with pytest.raises(DomainError):
            mc_count_estimate(lambda pts: np.zeros(pts.shape[0]),
                              np.zeros(2), 0.1, 50, Rng(44), 1.0)


class TestBetaCdf:
    def test_uniform(self):
        assert beta_cdf(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric(self):
        assert beta_cdf(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature(self):
        assert abs(beta_cdf(0.3, 2.0, 5.0)
                   - beta_cdf_oracle(0.3, 2.0, 5.0)) < 1e-8

    def test_monotone_in_x(self):
        values = [beta_cdf(x, 2.5, 0.7) for x in np.linspace(0.0, 1.0, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_endpoints(self):
        assert beta_cdf(0.0, 3.0, 4.0) == 0.0
        assert beta_cdf(1.0, 3.0, 4.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_cdf(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            beta_cdf(0.5, 0.0, 1.0)


class TestCredibleInterval:
    def test_uniform_interval(self):
        lo, hi = beta_quantile(np.array([TAIL, 1 - TAIL]), 1.0, 1.0)
        assert abs(lo - 0.025) < 1e-9
        assert abs(hi - 0.975) < 1e-9

    def test_retention_semantics(self):
        # a range of 0.03 stays under the 0.1 abstention threshold, 0.42 not
        assert 0.36 - 0.33 <= 0.1
        assert 0.55 - 0.13 > 0.1

    def test_concentrated_posterior_is_narrow(self):
        lo, hi = beta_quantile(np.array([TAIL, 1 - TAIL]), 200.0, 200.0)
        assert hi - lo < 0.1
        assert abs(lo - beta_quantile_oracle(0.025, 200.0, 200.0)) < 1e-6
        assert abs(hi - beta_quantile_oracle(0.975, 200.0, 200.0)) < 1e-6

    def test_interval_mass(self):
        for a, b in [(0.5, 0.5), (1.0, 3.0), (2.0, 2.0), (50.0, 7.0)]:
            lo, hi = beta_quantile(np.array([TAIL, 1 - TAIL]), a, b)
            mass = beta_cdf(hi, a, b) - beta_cdf(lo, a, b)
            assert abs(mass - 0.95) < 1e-8

    def test_range_shrinks_with_total_count(self):
        ranges = []
        for total in [2.0, 8.0, 32.0, 128.0, 512.0]:
            lo, hi = beta_quantile(np.array([TAIL, 1 - TAIL]),
                                   1.0 + total / 2, 1.0 + total / 2)
            ranges.append(hi - lo)
        assert all(b < a for a, b in zip(ranges, ranges[1:]))


class TestPriors:
    def test_base_rate_prior(self):
        prior = base_rate_prior(0.2, 10.0)
        assert (prior.a, prior.b) == (2.0, 8.0)

    def test_prior_injection_monotone(self):
        means = []
        for a0 in [0.5, 1.0, 2.0, 4.0, 8.0]:
            means.append(
                conjugate_update(BetaPosterior(a0, 1.0), 5.0, 5.0).mean[0])
        assert all(b > a for a, b in zip(means, means[1:]))


class TestPosteriorReport:
    def test_underflow_reports_prior_and_abstains(self):
        batch = posterior_report(np.array([-900.0, -900.0]),
                                 np.array([100.0, 100.0]),
                                 BetaPosterior(1.0, 1.0), 0.1)
        assert (batch.a[0], batch.b[0]) == (1.0, 1.0)
        assert batch.interval_range[0] == pytest.approx(0.95, abs=1e-9)
        assert batch.abstain[0]

    def test_strong_one_sided_density(self):
        batch = posterior_report(np.array([-2000.0, math.log(500.0)]),
                                 np.array([1.0, 1.0]),
                                 BetaPosterior(1.0, 1.0), 1.0)
        assert batch.mean[0] > 0.99
        assert batch.interval_range[0] < 0.02
        assert not batch.abstain[0]
        lo, hi = batch.lo[0], batch.hi[0]
        assert abs(lo - beta_quantile_oracle(0.025, 501.0, 1.0)) < 1e-6
        assert abs(hi - beta_quantile_oracle(0.975, 501.0, 1.0)) < 1e-6

    def test_symmetric_small_counts_abstain(self):
        batch = posterior_report(np.array([math.log(2.0), math.log(2.0)]),
                                 np.array([1.0, 1.0]),
                                 BetaPosterior(1.0, 1.0), 1.0)
        assert batch.mean[0] == pytest.approx(0.5)
        assert batch.interval_range[0] > 0.1
        assert batch.abstain[0]

    def test_multiclass_rejected(self):
        with pytest.raises(ShapeError, match=r"\(n, 2\)"):
            posterior_report(np.zeros(3), np.ones(3),
                             BetaPosterior(1.0, 1.0), 0.1)


# the existing grids of criterion 4 and TestCredibleInterval
EXISTING_GRID = ([(a, b, 0.3) for a in (0.5, 1.0, 2.0, 50.0)
                  for b in (0.5, 1.0, 2.0, 50.0)]
                 + [(2.0, 5.0, x) for x in (0.05, 0.5, 0.9, 0.99)])

# balanced pairs from 1e6 to 1e304, 1:3 pairs, and lopsided pairs
LARGE_PAIRS = [(1e6, 1e6), (1e8, 1e8), (1e12, 3e12), (1e20, 3e20),
               (1e50, 1e50), (1e100, 3e100), (1e304, 1e304),
               (1.0, 1e300), (1e8, 3.0), (0.5, 1e12), (99.0, 1e6),
               (150.0, 1e9)]


def grid_points(a, b):
    """Doubles at -2, -0.3, 0 and +1.5 sd from the mean (deduplicated)."""
    with mp.workdps(20 + int(math.log10(a + b))):
        s = mp.mpf(a) + mp.mpf(b)
        mean = mp.mpf(a) / s
        sd = mp.sqrt(mp.mpf(a) * b / (s * s * (s + 1)))
        xs = {float(mean + k * sd) for k in (-2, -0.3, 0, 1.5)}
    return sorted(x for x in xs if 0.0 < x < 1.0)


class TestOracleAgreement:
    def test_existing_grid_to_1e12(self):
        for a, b, x in EXISTING_GRID:
            assert abs(beta_cdf(x, a, b) - beta_cdf_oracle(x, a, b)) < 1e-12

    def test_interval_mass_to_1e12(self):
        for a, b in ((0.5, 0.5), (1.0, 3.0), (2.0, 7.0), (50.0, 50.0),
                     (200.0, 3.0)):
            lo, hi = beta_quantile(np.array([TAIL, 1 - TAIL]), a, b)
            mass = beta_cdf_oracle(hi, a, b) - beta_cdf_oracle(lo, a, b)
            assert abs(mass - 0.95) < 1e-12

    @pytest.mark.parametrize("a, b", LARGE_PAIRS,
                             ids=[f"{a:g}-{b:g}" for a, b in LARGE_PAIRS])
    def test_large_counts_cdf(self, a, b):
        for x in grid_points(a, b):
            assert abs(beta_cdf(x, a, b) - beta_cdf_window_oracle(x, a, b)) < 1e-12

    @pytest.mark.parametrize("a, b", LARGE_PAIRS,
                             ids=[f"{a:g}-{b:g}" for a, b in LARGE_PAIRS])
    def test_large_counts_quantiles(self, a, b):
        # the oracle CDF brackets each level within 1e-12 of our quantile
        for q in (0.025, 0.975):
            x = beta_quantile(q, a, b)
            assert beta_cdf_window_oracle(max(x - 1e-12, 0.0), a, b) <= q
            assert beta_cdf_window_oracle(min(x + 1e-12, 1.0), a, b) >= q


class TestArrayApi:
    def test_scalar_in_float_out(self):
        assert type(beta_cdf(0.3, 2.0, 5.0)) is float
        assert type(beta_quantile(0.3, 2.0, 5.0)) is float

    def test_broadcast_matches_scalar_calls(self):
        x = np.array([[0.1, 0.5], [0.7, 0.99]])
        a = np.array([0.5, 3.0])
        cdf = beta_cdf(x, a, 2.0)
        assert cdf.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert cdf[i, j] == beta_cdf(x[i, j], a[j], 2.0)
        q = beta_quantile(cdf, a, 2.0)
        assert np.max(np.abs(q - x)) < 1e-12

    def test_quantile_endpoints(self):
        assert beta_quantile(0.0, 2.0, 3.0) == 0.0
        assert beta_quantile(1.0, 2.0, 3.0) == 1.0

    def test_shapes_below_one(self):
        # the oracle CDF brackets each level within 1e-12 of our quantile
        for a, b in ((0.5, 0.5), (0.1, 2.0), (3.0, 0.2), (0.5, 1e12)):
            for q in (0.025, 0.5, 0.975):
                x = beta_quantile(q, a, b)
                assert beta_cdf_window_oracle(max(x - 1e-12, 0.0), a, b) <= q
                assert beta_cdf_window_oracle(min(x + 1e-12, 1.0), a, b) >= q
        # a quantile far below 1e-15 keeps its relative digits
        for q, a, b in ((0.025, 0.1, 2.0), (0.025, 0.5, 1e12), (0.025, 1.0, 1e20),
                        (0.5, 1.0, 1e20), (1e-300, 2.0, 2.0)):
            x = beta_quantile(q, a, b)
            assert beta_cdf(x, a, b) == pytest.approx(q, rel=1e-12)

    def test_error_names_the_row(self):
        with pytest.raises(DomainError, match="row 2"):
            beta_cdf(np.array([0.1, 0.2, 1.5]), 1.0, 1.0)
        with pytest.raises(DomainError, match="row 1"):
            beta_quantile(0.5, np.array([1.0, -1.0]), 1.0)
        with pytest.raises(DomainError, match="positive and finite"):
            beta_cdf(0.5, np.inf, 1.0)


class TestPosteriorBatch:
    def test_crash_1_regression(self):
        batch = posterior_report(np.array([20.0, 20.0]),
                                 np.array([1000.0, 1000.0]),
                                 BetaPosterior(1, 1), 1.0)
        lo, hi = batch.lo[0], batch.hi[0]
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo < hi and hi - lo < 0.1

    def test_fields(self):
        log_d = np.log(np.array([[2.0, 2.0], [1e-9, 5.0], [3.0, 1e-9]]))
        batch = posterior_reports(log_d, np.array([1.0, 1.0]),
                                  BetaPosterior(1.0, 1.0), 100.0)
        assert isinstance(batch, PosteriorBatch)
        assert len(batch) == 3
        assert np.array_equal(batch.a, 1.0 + batch.counts[:, 1])
        assert np.array_equal(batch.b, 1.0 + batch.counts[:, 0])
        assert np.array_equal(batch.interval_range, batch.hi - batch.lo)
        assert np.array_equal(batch.abstain, batch.interval_range > 0.1)
        assert batch.mean[1] > 0.99 and batch.mean[2] < 0.01

    @pytest.mark.parametrize("kwargs, message", [
        ({"threshold": float("nan")}, "threshold must be positive"),
        ({"threshold": 0.0}, "threshold must be positive"),
        ({"mass": float("nan")}, "mass must lie in"),
        ({"mass": 1.0}, "mass must lie in"),
    ], ids=["threshold-nan", "threshold-0", "mass-nan", "mass-1"])
    def test_levels_validated(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            posterior_reports(np.zeros((2, 2)), np.ones(2),
                              BetaPosterior(1.0, 1.0), 1.0, **kwargs)

    @pytest.mark.parametrize("volume", [float("nan"), float("inf")])
    def test_non_finite_volume(self, volume):
        with pytest.raises(DomainError,
                           match="volume must be positive and finite"):
            pseudo_counts(np.zeros(2), np.ones(2), volume)

    def test_bad_row_is_named(self):
        log_d = np.zeros((4, 2))
        log_d[2, 0] = np.nan
        with pytest.raises(DomainError, match="row 2"):
            posterior_reports(log_d, np.ones(2), BetaPosterior(1.0, 1.0), 1.0)

    def test_multiclass_rejected(self):
        with pytest.raises(ShapeError, match=r"\(n, 2\)"):
            posterior_reports(np.zeros((2, 3)), np.ones(3),
                              BetaPosterior(1.0, 1.0), 0.1)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(-800.0, 720.0),
                              st.floats(-800.0, 720.0)),
                    min_size=1, max_size=12),
           st.floats(0.05, 5.0), st.floats(0.05, 5.0))
    def test_rows_equal_one_row_calls(self, rows, prior_a, prior_b):
        log_d = np.array(rows)
        prior = BetaPosterior(prior_a, prior_b)
        class_counts = np.array([300.0, 700.0])
        batch = posterior_reports(log_d, class_counts, prior, 0.01)
        for i, row in enumerate(log_d):
            one = posterior_report(row, class_counts, prior, 0.01)
            assert len(one) == 1
            for field in ("log_densities", "counts", "a", "b", "lo", "hi",
                          "mean", "abstain"):
                assert getattr(one, field)[0].tobytes() \
                    == getattr(batch, field)[i].tobytes(), field
