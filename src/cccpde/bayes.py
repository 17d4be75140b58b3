"""Beta-Bernoulli conjugate machinery.

Class-conditional densities become pseudo-counts of nearby samples, the
counts update a Beta prior in closed form, and equal-tailed credible
intervals of the posterior drive the abstention rule. The regularized
incomplete beta function is evaluated by continued fraction; quantiles by
bisection on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UnsupportedError
from .numerics import Rng, log_gamma

UNDERFLOW_LOG = -700.0
OVERFLOW_LOG = 700.0


@dataclass(frozen=True)
class BetaPosterior:
    """Shape parameters of a Beta distribution over a success probability."""

    a: float
    b: float

    def __post_init__(self):
        # normalize numpy scalars so downstream reprs stay plain floats
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (self.a > 0 and self.b > 0):
            raise DomainError(f"Beta parameters must be positive, got ({self.a}, {self.b})")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)


def beta_update(prior: BetaPosterior, pos_count: float,
                neg_count: float) -> BetaPosterior:
    """Conjugate update: counts add directly onto the shape parameters."""
    if pos_count < 0 or neg_count < 0:
        raise DomainError(f"counts must be nonnegative, got ({pos_count}, {neg_count})")
    return BetaPosterior(prior.a + pos_count, prior.b + neg_count)


def base_rate_prior(positive_rate: float, concentration: float) -> BetaPosterior:
    """Beta prior encoding a known base rate with a chosen total weight."""
    if not 0.0 < positive_rate < 1.0:
        raise DomainError(f"base rate must lie in (0, 1), got {positive_rate}")
    if concentration <= 0:
        raise DomainError(f"concentration must be positive, got {concentration}")
    return BetaPosterior(concentration * positive_rate,
                         concentration * (1.0 - positive_rate))


def pseudo_counts(log_densities: np.ndarray, class_counts: np.ndarray,
                  volume: float) -> np.ndarray:
    """Expected same-class sample counts in a neighborhood of volume V.

    c_k = V * N_k * p_k(x), evaluated in log space; anything below
    exp(-700) clamps to zero so numerical underflow reads as "no support".
    """
    if volume <= 0:
        raise DomainError(f"volume must be positive, got {volume}")
    log_densities = np.asarray(log_densities, dtype=np.float64)
    class_counts = np.asarray(class_counts, dtype=np.float64)
    if np.any(class_counts < 0):
        raise DomainError("class counts must be nonnegative")
    with np.errstate(divide="ignore"):
        log_c = math.log(volume) + np.log(class_counts) + log_densities
    return np.where(log_c < UNDERFLOW_LOG, 0.0,
                    np.exp(np.minimum(log_c, OVERFLOW_LOG)))


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the Euclidean ball of the given radius."""
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    return math.exp(0.5 * dim * math.log(math.pi) + dim * math.log(radius)
                    - log_gamma(0.5 * dim + 1.0))


def mc_count_estimate(log_density_fn, x: np.ndarray, radius: float,
                      n_draws: int, rng: Rng, class_count: float) -> float:
    """Monte Carlo estimate of expected same-class samples in a ball.

    Averages the density over uniform draws in the ball around x and
    multiplies by the ball volume and the class training count.
    """
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    if n_draws < 100:
        raise DomainError(f"need at least 100 draws, got {n_draws}")
    if class_count < 0:
        raise DomainError("class count must be nonnegative")
    if class_count == 0:
        return 0.0
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    dim = x.size
    dirs = rng.normals(n_draws * dim).reshape(n_draws, dim)
    norms = np.sqrt((dirs * dirs).sum(axis=1, keepdims=True))
    radii = radius * rng.uniforms(n_draws) ** (1.0 / dim)
    points = x[None, :] + dirs / norms * radii[:, None]
    log_p = np.asarray(log_density_fn(points), dtype=np.float64)
    dens = np.exp(np.clip(log_p, UNDERFLOW_LOG, OVERFLOW_LOG))
    return class_count * ball_volume(dim, radius) * float(dens.mean())


def _beta_cont_frac(a: float, b: float, x: float,
                    max_iter: int = 300, eps: float = 1e-16) -> float:
    # modified Lentz evaluation of the incomplete beta continued fraction
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    frac = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        frac *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < eps:
            return frac
    raise NumericError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise DomainError(f"Beta parameters must be positive, got ({a}, {b})")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (log_gamma(a + b) - log_gamma(a) - log_gamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    # symmetry switch keeps the continued fraction fast-converging
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cont_frac(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cont_frac(b, a, 1.0 - x) / b


def beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse of beta_cdf by bisection."""
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"quantile level must lie in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if beta_cdf(mid, a, b) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def credible_interval(post: BetaPosterior,
                      mass: float = 0.95) -> tuple[float, float]:
    """Equal-tailed credible interval containing the stated posterior mass."""
    if not 0.0 < mass < 1.0:
        raise DomainError(f"mass must lie in (0, 1), got {mass}")
    tail = 0.5 * (1.0 - mass)
    return (beta_quantile(tail, post.a, post.b),
            beta_quantile(1.0 - tail, post.a, post.b))


@dataclass(frozen=True)
class UncertaintyReport:
    """Everything the posterior pipeline produced for one sample."""

    log_densities: np.ndarray
    counts: np.ndarray
    posterior: BetaPosterior
    interval: tuple[float, float]
    mean: float
    abstain: bool

    @property
    def interval_range(self) -> float:
        return self.interval[1] - self.interval[0]


def posterior_report(log_densities: np.ndarray, class_counts: np.ndarray,
                     prior: BetaPosterior, volume: float,
                     threshold: float = 0.1,
                     mass: float = 0.95) -> UncertaintyReport:
    """Full per-sample pipeline: counts, conjugate update, interval, abstain.

    Binary only; class 1 counts as the positive class. The abstain flag is
    set when the credible interval is wider than the threshold.
    """
    log_densities = np.asarray(log_densities, dtype=np.float64).reshape(-1)
    if log_densities.size != 2:
        raise UnsupportedError(
            "posterior reports support binary models only; a multiclass "
            "version needs a Dirichlet-multinomial treatment that is not "
            "implemented here")
    counts = pseudo_counts(log_densities, class_counts, volume)
    post = beta_update(prior, counts[1], counts[0])
    lo, hi = credible_interval(post, mass)
    return UncertaintyReport(
        log_densities=log_densities,
        counts=counts,
        posterior=post,
        interval=(lo, hi),
        mean=post.mean,
        abstain=(hi - lo) > threshold,
    )


def posterior_reports(log_densities: np.ndarray, class_counts: np.ndarray,
                      prior: BetaPosterior, volume: float,
                      threshold: float = 0.1,
                      mass: float = 0.95) -> list[UncertaintyReport]:
    """posterior_report over the rows of an (n, 2) log-density array."""
    log_densities = np.asarray(log_densities, dtype=np.float64)
    return [
        posterior_report(row, class_counts, prior, volume, threshold, mass)
        for row in log_densities
    ]
