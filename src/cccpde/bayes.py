"""Beta-Bernoulli conjugate machinery, as array code over all samples.

Class-conditional densities become pseudo-counts of nearby samples, the
counts update a Beta prior in closed form, and equal-tailed credible
intervals of the posterior drive the abstention rule. That is one
pipeline, `posterior_reports`, run on every row at once, with one result
type, `PosteriorBatch`, holding an array per field.

The regularized incomplete beta function I_x(a, b) is the front factor
x^a (1-x)^b / B(a, b) times a continued fraction (modified Lentz). The
front factor is written around the mean p = a/(a+b), with Stirling
corrections in place of log-gamma differences, so that it keeps full
accuracy for large shapes. The fraction needs O(sqrt(max(a, b))) terms
near the mean, so two other methods take over for large shapes: a
positive hypergeometric series when one shape is small and the other
large, and the asymptotic expansion `basym` of DiDonato & Morris (ACM
TOMS 708, 1992) once both shapes reach 100. Quantiles come from
safeguarded Newton steps started at a normal approximation, with a
bisection fallback inside a bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .numerics import log_gamma

UNDERFLOW_LOG = -700.0
OVERFLOW_LOG = 700.0

_ASYM_MIN = 100.0  # both shapes at least this: asymptotic expansion
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_CF_MAX_ITER = 1000
_CF_EPS = 1e-16
_LOPSIDED = 1000.0  # larger shape above this, smaller below _ASYM_MIN: series
_SERIES_MAX = 2000
_ASYM_TERMS = 10  # basym series length (even); 8 leaves 1e-13 at a = b = 100
_E0 = 2.0 / math.sqrt(math.pi)
_E1 = 2.0 ** -1.5
_NEWTON_MAX_ITER = 200
_STEP_TOL = 1e-15
_BRACKET_TOL = 1e-14
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class BetaPosterior:
    """Shape parameters of a Beta distribution over a success probability."""

    a: float
    b: float

    def __post_init__(self):
        # normalize numpy scalars so downstream reprs stay plain floats
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise DomainError(f"Beta parameters must be positive and finite, "
                              f"got ({self.a}, {self.b})")


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
    if not 0 < volume < math.inf:
        raise DomainError(f"volume must be positive and finite, got {volume}")
    log_densities = np.asarray(log_densities, dtype=np.float64)
    class_counts = np.asarray(class_counts, dtype=np.float64)
    if np.any(class_counts < 0):
        raise DomainError("class counts must be nonnegative")
    with np.errstate(divide="ignore"):
        log_c = math.log(volume) + np.log(class_counts) + log_densities
    return np.where(log_c < UNDERFLOW_LOG, 0.0,
                    np.exp(np.minimum(log_c, OVERFLOW_LOG)))


# -- incomplete beta function -------------------------------------------------


def _at(bad: np.ndarray) -> str:
    # names the first flagged element of an array argument
    if bad.ndim == 0:
        return ""
    i = tuple(int(k) for k in np.unravel_index(np.argmax(bad), bad.shape))
    return f" in row {i[0]}" if bad.ndim == 1 else f" at index {i}"


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    bad = ~((a > 0) & (a < np.inf) & (b > 0) & (b < np.inf))
    if bad.any():
        i = np.argmax(bad)
        raise DomainError(f"Beta parameters must be positive and finite, "
                          f"got ({a.flat[i]}, {b.flat[i]}){_at(bad)}")


def _check_converged(values, x, a, b, name: str) -> None:
    bad = np.isnan(values)
    if bad.any():
        i = np.argmax(bad)
        raise NumericError(f"incomplete beta function did not converge (a="
                           f"{a.flat[i]}, b={b.flat[i]}, {name}={x.flat[i]})"
                           f"{_at(bad)}")


def _rlog1(t: np.ndarray, log1pt: np.ndarray) -> np.ndarray:
    """t - log(1 + t) for t >= -1, without cancellation at small |t|.

    `log1pt` is log(1 + t) computed from the operands of t, so that t near
    -1 keeps its digits; it is used where |t| >= 1/2.
    """
    small = np.abs(t) < 0.5
    u = np.where(small, t, 0.0)
    u = u / (2.0 + u)  # log(1 + t) = 2 atanh(u)
    u2 = u * u
    series = np.zeros_like(u)
    for k in range(17, -1, -1):  # sum of u^(2k) / (2k + 3); |u| <= 1/3
        series = series * u2 + 1.0 / (2 * k + 3)
    return np.where(small, 2.0 * u2 / (1.0 - u) - 2.0 * u * u2 * series,
                    t - log1pt)


def _stirling_corr(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi))."""
    large = x >= 10.0
    r = 1.0 / np.where(large, x, 10.0)
    r2 = r * r
    series = r * (1 / 12 + r2 * (-1 / 360 + r2 * (1 / 1260 + r2 * (
        -1 / 1680 + r2 * (1 / 1188 + r2 * (-691 / 360360 + r2 / 156))))))
    xs = np.where(large, 1.0, x)
    direct = log_gamma(xs) - ((xs - 0.5) * np.log(xs) - xs + _LOG_SQRT_2PI)
    return np.where(large, series, direct)


def _split(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Veltkamp: u = hi + lo with 26-bit halves, so products of halves are exact
    c = 134217729.0 * u
    hi = c - (c - u)
    return hi, u - hi


def _centered(x, a, s, s_lo):
    """x * s - a, where s + s_lo = a + b exactly, without cancellation error.

    Near the mean x * s and a agree in their leading bits; the Dekker product
    keeps the bits that a plain `x * s - a` would lose.
    """
    scale = np.where(s > 2.0 ** 900, 2.0 ** -200, 1.0)  # keeps the split finite
    hs, a_sc = s * scale, a * scale
    prod = x * hs
    xh, xl = _split(x)
    sh, sl = _split(hs)
    err = ((xh * sh - prod) + xh * sl + xl * sh) + xl * sl
    return ((prod - a_sc) + (err + x * (s_lo * scale))) / scale


def _basym_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The shape-only coefficients d_1..d_(terms+1) of basym, one column a row.

    Swapping a and b multiplies d_n by (-1)^n, which `_basym` applies
    through the sign of w0.
    """
    big = a >= b
    h = np.where(big, b / a, a / b)
    r0 = 1.0 / (1.0 + h)
    r1 = (b - a) / np.where(big, a, b)
    size = _ASYM_TERMS + 2  # 1-based, as in the published recursion
    a0 = np.zeros((size,) + a.shape)
    b0 = np.zeros_like(a0)
    c = np.zeros_like(a0)
    d = np.zeros_like(a0)
    a0[1] = (2.0 / 3.0) * r1
    c[1] = -0.5 * a0[1]
    d[1] = -c[1]
    h2, hn, s = h * h, np.ones_like(h), np.ones_like(h)
    for n in range(2, _ASYM_TERMS + 1, 2):
        hn = h2 * hn
        a0[n] = 2.0 * r0 * (1.0 + h * hn) / (n + 2.0)
        s = s + hn
        a0[n + 1] = 2.0 * r1 * s / (n + 3.0)
        for i in (n, n + 1):
            r = -0.5 * (i + 1.0)
            b0[1] = r * a0[1]
            for m in range(2, i + 1):
                j = np.arange(1.0, m)[:, None]
                terms = (j * r - (m - j)) * a0[1:m] * b0[m - 1:0:-1]
                # accumulate adds in index order for every row alike
                b0[m] = r * a0[m] + np.add.accumulate(terms)[-1] / m
            c[i] = b0[i] / (i + 1.0)
            d[i] = -(np.add.accumulate(d[i - 1:0:-1] * c[1:i])[-1] + c[i])
    return d


def _erfc(z: np.ndarray) -> np.ndarray:
    """erfc(z) for z >= 0 to about 1e-16 absolute (0 from z = 6 on)."""
    out = np.zeros_like(z)
    rows = np.nonzero(z < 6.0)[0]
    zz = z[rows]
    x2 = 2.0 * zz * zz
    term, total = zz.copy(), zz.copy()
    # erf(z) = 2/sqrt(pi) exp(-z^2) sum_k (2z^2)^k z / (1*3*...*(2k+1)); once a
    # row's terms fall below 1e-17 of its sum they no longer change it
    k = 1
    while np.any(term > 1e-17 * total):
        term = term * x2 / (2 * k + 1)
        total = total + term
        k += 1
    out[rows] = 1.0 - _E0 * np.exp(-zz * zz) * total
    return out


def _basym(f, w0, d, bcorr):
    """I_x(a, b) for x <= a/(a+b) by the basym expansion.

    `f` = a rlog1(-lam/a) + b rlog1(lam/b) with lam = (a+b)(1-x) - b, `w0`
    and `d` come from the shapes alone, `bcorr` is the Stirling correction of
    log B(a, b). Every term carries its factor exp(-f), so no part overflows.
    """
    f = np.minimum(f, 1e4)  # beyond ~745 every term underflows to 0
    t = np.exp(-f)
    z0 = np.sqrt(f)
    z2 = f + f
    j0 = (0.5 / _E0) * _erfc(z0)
    j1 = _E1 * t
    total = j0 + d[1] * w0 * j1
    w = w0
    znm1 = 0.5 * z0 / _E1 * t
    zn = z2 * t
    for n in range(2, _ASYM_TERMS + 1, 2):
        j0 = _E1 * znm1 + (n - 1.0) * j0
        j1 = _E1 * zn + n * j1
        znm1 = z2 * znm1
        zn = z2 * zn
        w = w0 * w
        t0 = d[n] * w * j0
        w = w0 * w
        t1 = d[n + 1] * w * j1
        total = total + (t0 + t1)
    return _E0 * np.exp(-bcorr) * total


def _cont_frac(a, b, x):
    """Modified Lentz evaluation of the incomplete beta continued fraction.

    Element-wise; an element that has not converged after `_CF_MAX_ITER`
    steps reads nan.
    """
    tiny = 1e-300
    out = np.full_like(x, np.nan)
    idx = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    dd = 1.0 - qab * x / qap
    dd = 1.0 / np.where(np.abs(dd) < tiny, tiny, dd)
    frac = dd
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        dd = 1.0 + num * dd
        dd = np.where(np.abs(dd) < tiny, tiny, dd)
        c = 1.0 + num / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        dd = 1.0 / dd
        frac = frac * (dd * c)
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        dd = 1.0 + num * dd
        dd = np.where(np.abs(dd) < tiny, tiny, dd)
        c = 1.0 + num / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        dd = 1.0 / dd
        delta = dd * c
        frac = frac * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            out[idx[done]] = frac[done]
            keep = ~done
            if not keep.any():
                break
            idx, a, b, x, qab, qap, qam, c, dd, frac = (
                v[keep] for v in (idx, a, b, x, qab, qap, qam, c, dd, frac))
    return out


def _series(a, s, x, start):
    """start * sum_n (s)_n / (a+1)_n x^n, with s = a + b.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x), and with
    that front factor as `start` the terms are probability masses. All are
    positive, so nothing cancels. A row that would need more than
    `_SERIES_MAX` terms lies far right of the mean and reads 1.
    """
    out = np.ones_like(x)
    idx = np.nonzero((s * x - a - 1.0) / (1.0 - x) <= _SERIES_MAX)[0]
    a, s, x = a[idx], s[idx], x[idx]
    term, total = start[idx], start[idx].copy()
    for n in range(2 * _SERIES_MAX):
        r = (s + n) * x / (a + 1.0 + n)
        term = term * r
        total = total + term
        # past the peak the remaining terms add up to less than term r/(1-r)
        done = (r < 1.0) & (term * r <= 1e-17 * (1.0 - r) * total)
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            if not keep.any():
                return out
            idx, a, s, x, term, total = (
                v[keep] for v in (idx, a, s, x, term, total))
    out[idx] = np.nan
    return out


class _IncompleteBeta:
    """I_x(a, b) and its log front factor for fixed 1-D shape arrays.

    The shape-only parts (Stirling corrections, basym coefficients) are set
    up once, so repeated calls, such as Newton steps, pay for x alone.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b
        s = a + b
        bb = s - a
        self.s, self.s_lo = s, (a - (s - bb)) + (b - bb)  # exact a + b
        self.log_p, self.log_q = np.log(a) - np.log(s), np.log(b) - np.log(s)
        self.bcorr = _stirling_corr(a) + _stirling_corr(b) - _stirling_corr(s)
        # log of sqrt(ab / (2 pi s)) exp(-bcorr) = p^a q^b / B(a, b)
        self.log_peak = (0.5 * (np.log(a) + np.log(b) - np.log(s))
                         - _LOG_SQRT_2PI - self.bcorr)
        self.asym = (a >= _ASYM_MIN) & (b >= _ASYM_MIN)
        rows = np.nonzero(self.asym)[0]
        if rows.size:
            lo, hi = np.minimum(a[rows], b[rows]), np.maximum(a[rows], b[rows])
            self.d = _basym_coeffs(a[rows], b[rows])
            self.w0 = 1.0 / np.sqrt(lo * (1.0 + lo / hi))
            self.asym_col = np.cumsum(self.asym) - 1  # row -> column of d

    def __call__(self, x: np.ndarray, rows: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(I_x, log of x^a (1-x)^b / B(a, b)) for the given rows."""
        a, b, s = self.a[rows], self.b[rows], self.s[rows]
        num = _centered(x, a, s, self.s_lo[rows])  # (x - p) (a + b)
        # a log(x/p) + b log((1-x)/q) = -f, a sum of two nonnegative terms
        with np.errstate(divide="ignore"):
            f = (a * _rlog1(num / a, np.log(x) - self.log_p[rows])
                 + b * _rlog1(-num / b, np.log1p(-x) - self.log_q[rows]))
        log_front = self.log_peak[rows] - f

        asym = self.asym[rows]
        # one smaller shape, one past _LOPSIDED: there the continued fraction
        # needs O(sqrt(max(a, b))) terms, the positive series O(a + b) x
        lop = ~asym & (np.maximum(a, b) > _LOPSIDED)
        # each method evaluates one side; the other is 1 - I_(1-x)(b, a)
        swap = np.where(asym, num > 0,  # basym: left of the mean
                        np.where(lop, a > b,  # series: smaller shape first
                                 x > (a + 1.0) / (s + 2.0)))  # fast fraction
        aa, bb = np.where(swap, b, a), np.where(swap, a, b)
        xx = np.where(swap, 1.0 - x, x)
        with np.errstate(under="ignore"):
            scaled = np.exp(log_front) / aa
        part = np.empty_like(x)
        cf = np.nonzero(~asym & ~lop)[0]
        if cf.size:
            part[cf] = scaled[cf] * _cont_frac(aa[cf], bb[cf], xx[cf])
        ls = np.nonzero(lop)[0]
        if ls.size:
            part[ls] = _series(aa[ls], s[ls], xx[ls], scaled[ls])
        ap = np.nonzero(asym)[0]
        if ap.size:
            col = self.asym_col[rows[ap]]
            w0 = np.where(swap[ap], -self.w0[col], self.w0[col])
            with np.errstate(under="ignore"):
                part[ap] = _basym(f[ap], w0, self.d[:, col],
                                  self.bcorr[rows[ap]])
        cdf = np.clip(np.where(swap, 1.0 - part, part), 0.0, 1.0)
        return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, cdf)), log_front


def _broadcast(*args) -> list[np.ndarray]:
    return np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in args))


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b).

    Broadcasts over array arguments; returns a float for scalar input.
    """
    x, a, b = _broadcast(x, a, b)
    _check_shapes(a, b)
    bad = ~((x >= 0.0) & (x <= 1.0))
    if bad.any():
        raise DomainError(f"x must lie in [0, 1], got {x.flat[np.argmax(bad)]}"
                          f"{_at(bad)}")
    flat = x.reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf, _ = _IncompleteBeta(a.reshape(-1), b.reshape(-1))(
            flat, np.arange(flat.size))
    cdf = cdf.reshape(x.shape)
    _check_converged(cdf, x, a, b, "x")
    return float(cdf) if cdf.ndim == 0 else cdf


def _start(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Starting points for Newton: a normal approximation when both shapes
    are at least 1 (Abramowitz & Stegun 26.5.22), power-law tails otherwise."""
    pp = np.minimum(q, 1.0 - q)
    t = np.sqrt(-2.0 * np.log(pp))
    # upper-tail normal deviate of pp (A&S 26.2.22), signed so y > 0 for q < 1/2
    y = t - (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481))
    y = np.where(q < 0.5, y, -y)
    ia, ib = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
    lam = (y * y - 3.0) / 6.0
    h = 2.0 / (ia + ib)
    w = y * np.sqrt(lam + h) / h - (ib - ia) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    normal = a / (a + b * np.exp(2.0 * w))
    # I_x ~ x^a / (a B) near 0 and 1 - (1-x)^b / (b B) near 1
    s = a + b
    lo_mass = np.exp(a * np.log(a / s)) / a
    hi_mass = np.exp(b * np.log(b / s)) / b
    total = lo_mass + hi_mass
    tails = np.where(q < lo_mass / total,
                     (a * total * q) ** (1.0 / a),
                     1.0 - (b * total * (1.0 - q)) ** (1.0 / b))
    guess = np.where((a >= 1.0) & (b >= 1.0), normal, tails)
    guess = np.where(np.isnan(guess), 0.5, guess)
    return np.clip(guess, np.finfo(np.float64).tiny, 1.0 - 2.0 ** -53)


def _quantiles(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with I_x(a, b) = q for 1-D arrays with 0 < q < 1.

    Newton steps stay inside a bracket [lo, hi] that every evaluation
    narrows; a step that would leave it bisects at the geometric mean. A
    row stops once its step is at most 1e-15 of x or its bracket under
    1e-14 of hi (relative down to the least normal float), so a tiny
    quantile keeps its digits. A row whose CDF does not converge reads nan.
    """
    inc = _IncompleteBeta(a, b)
    out = np.empty_like(q)
    rows = np.arange(q.size)
    x = _start(q, a, b)
    lo, hi = np.zeros_like(q), np.ones_like(q)
    for _ in range(_NEWTON_MAX_ITER):
        cdf, log_front = inc(x, rows)
        qr = q[rows]
        below = cdf < qr
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        # Newton step F / F', F' = x^(a-1) (1-x)^(b-1) / B(a, b), in logs
        step = np.where(cdf == qr, 0.0, (cdf - qr) * np.exp(
            np.log(x * (1.0 - x)) - log_front))
        new = x - step
        small = np.abs(step) <= _STEP_TOL * x
        new = np.where(small | ((new > lo) & (new < hi)), np.clip(new, lo, hi),
                       np.sqrt(np.maximum(lo, 5e-324)) * np.sqrt(hi))
        failed = np.isnan(cdf)
        new = np.where(failed, np.nan, new)
        done = small | (hi - lo < _BRACKET_TOL * np.maximum(hi, _TINY)) | failed
        out[rows[done]] = new[done]
        keep = ~done
        if not keep.any():
            return out
        rows, x, lo, hi = rows[keep], new[keep], lo[keep], hi[keep]
    out[rows] = x
    return out


def beta_quantile(q, a, b):
    """Inverse of beta_cdf in x: safeguarded Newton from a normal start.

    Broadcasts over array arguments; returns a float for scalar input.
    """
    q, a, b = _broadcast(q, a, b)
    bad = ~((q >= 0.0) & (q <= 1.0))
    if bad.any():
        raise DomainError(f"quantile level must lie in [0, 1], got "
                          f"{q.flat[np.argmax(bad)]}{_at(bad)}")
    _check_shapes(a, b)
    out = q.astype(np.float64, copy=True).reshape(-1)  # q = 0 -> 0, q = 1 -> 1
    inner = np.nonzero((out > 0.0) & (out < 1.0))[0]
    if inner.size:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[inner] = _quantiles(out[inner], a.reshape(-1)[inner],
                                    b.reshape(-1)[inner])
    out = out.reshape(q.shape)
    _check_converged(out, q, a, b, "q")
    return float(out) if out.ndim == 0 else out


# -- posterior pipeline -------------------------------------------------------


@dataclass(frozen=True)
class PosteriorBatch:
    """The posterior pipeline's output for n samples, one array per field.

    Row i holds log-densities and pseudo-counts (n, 2), the posterior
    Beta(a, b), its credible interval [lo, hi], its mean, and the abstain
    flag (interval wider than the threshold).
    """

    log_densities: np.ndarray
    counts: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    mean: np.ndarray
    abstain: np.ndarray

    def __len__(self) -> int:
        return self.a.shape[0]

    @property
    def interval_range(self) -> np.ndarray:
        return self.hi - self.lo


def posterior_reports(log_densities: np.ndarray, class_counts: np.ndarray,
                      prior: BetaPosterior, volume: float,
                      threshold: float = 0.1,
                      mass: float = 0.95) -> PosteriorBatch:
    """The posterior pipeline over the rows of an (n, 2) log-density array.

    Log-densities -> pseudo-counts -> Beta(a, b) -> both ends of the
    equal-tailed interval holding `mass` -> abstain where it is wider than
    `threshold`. Class 1 counts as the positive class.
    """
    if not threshold > 0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    if not 0.0 < mass < 1.0:
        raise DomainError(f"mass must lie in (0, 1), got {mass}")
    log_densities = np.asarray(log_densities, dtype=np.float64)
    if log_densities.ndim != 2 or log_densities.shape[1] != 2:
        raise ShapeError(f"log-densities must be (n, 2), got "
                         f"shape {log_densities.shape}")
    counts = pseudo_counts(log_densities, class_counts, volume)
    a = prior.a + counts[:, 1]
    b = prior.b + counts[:, 0]
    _check_shapes(a, b)
    tail = 0.5 * (1.0 - mass)
    ends = beta_quantile(np.array([tail, 1.0 - tail]), a[:, None], b[:, None])
    lo, hi = ends[:, 0], ends[:, 1]
    return PosteriorBatch(log_densities=log_densities, counts=counts, a=a, b=b,
                          lo=lo, hi=hi, mean=a / (a + b),
                          abstain=(hi - lo) > threshold)


def posterior_report(log_densities: np.ndarray, class_counts: np.ndarray,
                     prior: BetaPosterior, volume: float,
                     threshold: float = 0.1,
                     mass: float = 0.95) -> PosteriorBatch:
    """`posterior_reports` on one sample's log-densities: a one-row batch.

    Only the benchmark's per-row timing calls this; it goes when that
    benchmark times `posterior_reports` instead (ROADMAP item 3).
    """
    return posterior_reports(np.reshape(log_densities, (1, -1)), class_counts,
                             prior, volume, threshold, mass)
