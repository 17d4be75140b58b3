import math

import mpmath as mp
import numpy as np
import pytest

from cccpde.bayes import (
    BetaPosterior,
    ball_volume,
    base_rate_prior,
    beta_cdf,
    beta_quantile,
    beta_update,
    credible_interval,
    mc_count_estimate,
    posterior_report,
    pseudo_counts,
)
from cccpde.errors import DomainError, UnsupportedError
from cccpde.flow import FlowStack
from cccpde.numerics import Rng

mp.mp.dps = 30


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


def beta_quantile_oracle(q, a, b):
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if beta_cdf_oracle(mid, a, b) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBetaUpdate:
    def test_single_positive(self):
        post = beta_update(BetaPosterior(1.0, 1.0), 1.0, 0.0)
        assert (post.a, post.b) == (2.0, 1.0)
        assert post.mean == pytest.approx(2.0 / 3.0)

    def test_zero_counts_keep_prior(self):
        post = beta_update(BetaPosterior(2.5, 0.5), 0.0, 0.0)
        assert (post.a, post.b) == (2.5, 0.5)

    def test_arithmetic(self):
        post = beta_update(BetaPosterior(1.0, 1.0), 10.0, 30.0)
        assert post.mean == pytest.approx(11.0 / 42.0, rel=1e-15)

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            beta_update(BetaPosterior(1.0, 1.0), -1.0, 0.0)

    def test_batched_updates_commute(self):
        prior = BetaPosterior(0.5, 1.5)
        stepwise = beta_update(beta_update(prior, 3.0, 2.0), 4.0, 7.0)
        joint = beta_update(prior, 7.0, 9.0)
        assert (stepwise.a, stepwise.b) == (joint.a, joint.b)

    def test_invalid_prior(self):
        with pytest.raises(DomainError):
            BetaPosterior(0.0, 1.0)


class TestPseudoCounts:
    def test_underflow_gives_zero_and_prior_posterior(self):
        counts = pseudo_counts(np.array([-1e9, -800.0]),
                               np.array([100.0, 100.0]), 0.1)
        assert np.array_equal(counts, np.zeros(2))
        post = beta_update(BetaPosterior(1.0, 1.0), counts[1], counts[0])
        assert (post.a, post.b) == (1.0, 1.0)

    def test_symmetry_keeps_mean_half(self):
        counts = pseudo_counts(np.array([-2.0, -2.0]),
                               np.array([500.0, 500.0]), 0.2)
        assert counts[0] == counts[1] > 0
        post = beta_update(BetaPosterior(1.0, 1.0), counts[1], counts[0])
        assert post.mean == pytest.approx(0.5)

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
        point = pseudo_counts(stack.log_density(x[None, :]),
                              np.array([2000.0]), volume)[0]
        mc = mc_count_estimate(stack.log_density, x, radius, 2000,
                               Rng(40), 2000.0)
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
        mc = mc_count_estimate(stack.log_density, x, radius, 4000,
                               Rng(42), 1000.0)
        point = (1000.0 * ball_volume(2, radius)
                 * math.exp(float(stack.log_density(x[None, :])[0])))
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
        lo, hi = credible_interval(BetaPosterior(1.0, 1.0), 0.95)
        assert abs(lo - 0.025) < 1e-9
        assert abs(hi - 0.975) < 1e-9

    def test_retention_semantics(self):
        # a range of 0.03 stays under the 0.1 abstention threshold, 0.42 not
        assert 0.36 - 0.33 <= 0.1
        assert 0.55 - 0.13 > 0.1

    def test_concentrated_posterior_is_narrow(self):
        post = BetaPosterior(200.0, 200.0)
        lo, hi = credible_interval(post, 0.95)
        assert hi - lo < 0.1
        assert abs(lo - beta_quantile_oracle(0.025, 200.0, 200.0)) < 1e-6
        assert abs(hi - beta_quantile_oracle(0.975, 200.0, 200.0)) < 1e-6

    def test_interval_mass(self):
        for a, b in [(0.5, 0.5), (1.0, 3.0), (2.0, 2.0), (50.0, 7.0)]:
            post = BetaPosterior(a, b)
            lo, hi = credible_interval(post, 0.95)
            mass = beta_cdf(hi, a, b) - beta_cdf(lo, a, b)
            assert abs(mass - 0.95) < 1e-8

    def test_range_shrinks_with_total_count(self):
        ranges = []
        for total in [2.0, 8.0, 32.0, 128.0, 512.0]:
            post = BetaPosterior(1.0 + total / 2, 1.0 + total / 2)
            lo, hi = credible_interval(post)
            ranges.append(hi - lo)
        assert all(b < a for a, b in zip(ranges, ranges[1:]))

    def test_mass_validated(self):
        with pytest.raises(DomainError):
            credible_interval(BetaPosterior(1.0, 1.0), 1.0)


class TestPriors:
    def test_base_rate_prior(self):
        prior = base_rate_prior(0.2, 10.0)
        assert (prior.a, prior.b) == (2.0, 8.0)

    def test_prior_injection_monotone(self):
        means = []
        for a0 in [0.5, 1.0, 2.0, 4.0, 8.0]:
            post = beta_update(BetaPosterior(a0, 1.0), 5.0, 5.0)
            means.append(post.mean)
        assert all(b > a for a, b in zip(means, means[1:]))


class TestPosteriorReport:
    def test_underflow_reports_prior_and_abstains(self):
        report = posterior_report(np.array([-900.0, -900.0]),
                                  np.array([100.0, 100.0]),
                                  BetaPosterior(1.0, 1.0), 0.1)
        assert (report.posterior.a, report.posterior.b) == (1.0, 1.0)
        assert report.interval_range == pytest.approx(0.95, abs=1e-9)
        assert report.abstain

    def test_strong_one_sided_density(self):
        report = posterior_report(np.array([-2000.0, math.log(500.0)]),
                                  np.array([1.0, 1.0]),
                                  BetaPosterior(1.0, 1.0), 1.0)
        assert report.mean > 0.99
        assert report.interval_range < 0.02
        assert not report.abstain
        lo, hi = report.interval
        assert abs(lo - beta_quantile_oracle(0.025, 501.0, 1.0)) < 1e-6
        assert abs(hi - beta_quantile_oracle(0.975, 501.0, 1.0)) < 1e-6

    def test_symmetric_small_counts_abstain(self):
        report = posterior_report(np.array([math.log(2.0), math.log(2.0)]),
                                  np.array([1.0, 1.0]),
                                  BetaPosterior(1.0, 1.0), 1.0)
        assert report.mean == pytest.approx(0.5)
        assert report.interval_range > 0.1
        assert report.abstain

    def test_multiclass_rejected(self):
        with pytest.raises(UnsupportedError, match="Dirichlet"):
            posterior_report(np.zeros(3), np.ones(3),
                             BetaPosterior(1.0, 1.0), 0.1)
