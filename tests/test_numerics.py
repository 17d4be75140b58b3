import math
from collections import Counter

import numpy as np
import pytest

from cccpde.errors import DomainError, NumericError
from cccpde.nn import dropout
from cccpde.numerics import (
    NORMAL_BLOCK,
    Rng,
    derive_seed,
    log_gamma,
)

from helpers import (
    finite_diff_grad,
    reference_normals,
    rng_randint_below,
    rng_random,
)


class TestRng:
    def test_same_seed_same_pairs(self):
        assert np.array_equal(Rng(42).normals(2),
                              Rng(42).normals(2))

    def test_streams_reproducible(self):
        assert np.array_equal(Rng(123).uniforms(10_000),
                              Rng(123).uniforms(10_000))

    def test_uniforms_match_scalar_calls(self):
        a = Rng(5)
        b = Rng(5)
        assert np.array_equal(a.uniforms(50),
                              np.array([rng_random(b) for _ in range(50)]))

    def test_normal_moments(self):
        z = Rng(1).normals(100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05

    def test_zero_draws_is_empty(self):
        assert Rng(0).normals(0).size == 0

    @pytest.mark.parametrize("n", [0, 1, 7, NORMAL_BLOCK - 1, NORMAL_BLOCK,
                                   NORMAL_BLOCK + 1, 3 * NORMAL_BLOCK + 5])
    def test_blocked_normals_equal_one_shot(self, n):
        rng, twin = Rng(n + 3), Rng(n + 3)
        assert np.array_equal(rng.normals(n), reference_normals(twin, n))
        # both consumed the same stream, odd n's dropped sine included
        assert np.array_equal(rng.uniforms(3), twin.uniforms(3))

    def test_uniform_range(self):
        u = Rng(77).uniforms(10_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_permutation_is_permutation(self):
        perm = Rng(8).permutation(200)
        assert sorted(perm.tolist()) == list(range(200))

    def test_derive_seed_separates_streams(self):
        root = 31337
        streams = {label: Rng(derive_seed(root, label)).uniforms(4)
                   for label in ("data", "init", "shuffle", "sampling")}
        labels = list(streams)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                assert not np.array_equal(streams[labels[i]],
                                          streams[labels[j]])
        again = Rng(derive_seed(root, "data")).uniforms(4)
        assert np.array_equal(streams["data"], again)

    def test_randint_below_bounds(self):
        rng = Rng(2)
        draws = [rng_randint_below(rng, 7) for _ in range(1000)]
        assert min(draws) == 0
        assert max(draws) == 6


class TestStreamContract:
    """Draws are fixed functions of PCG64's raw stream, which numpy keeps
    the same across platforms and versions."""

    def test_uniforms_pinned(self):
        assert [float(u).hex() for u in Rng(0).uniforms(4)] == [
            "0x1.461fd79fb3850p-1",
            "0x1.1442f7e20b674p-2",
            "0x1.4fa7b529d9bd0p-5",
            "0x1.0ec9ed84d0bc0p-6",
        ]

    def test_permutation_pinned(self):
        assert Rng(0).permutation(8).tolist() == [3, 2, 1, 6, 0, 7, 4, 5]

    def test_dropout_mask_is_uniform_threshold(self):
        x = Rng(17).normals(96).reshape(8, 12)
        rng, twin = Rng(18), Rng(18)
        out, mask = dropout(x, 0.3, rng)
        assert np.array_equal(mask,
                              twin.uniforms(x.size).reshape(x.shape) >= 0.3)
        assert np.array_equal(out, x * mask / 0.7)

    def test_permutation_orderings_uniform(self):
        rng = Rng(19)
        counts = Counter(tuple(rng.permutation(3).tolist())
                         for _ in range(6000))
        assert len(counts) == 6
        chi2 = sum((c - 1000) ** 2 / 1000 for c in counts.values())
        assert chi2 < 20.52  # chi-square, 5 degrees of freedom, p = 0.001


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    @pytest.mark.parametrize("x", [0.5, 1.5, 7.3, 100.0])
    def test_recurrence(self, x):
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_accuracy_against_lgamma(self):
        for x in np.logspace(-1, 6, 200):
            ours = log_gamma(float(x))
            ref = math.lgamma(float(x))
            assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda v: float((v * v).sum()),
                                np.array([1.0, 2.0]), 1e-5)
        assert np.abs(grad - np.array([2.0, 4.0])).max() < 1e-6

    def test_constant(self):
        grad = finite_diff_grad(lambda v: 3.5, np.zeros((2, 3)), 1e-5)
        assert np.array_equal(grad, np.zeros((2, 3)))

    def test_sin(self):
        grad = finite_diff_grad(lambda v: math.sin(v[0]), np.array([0.0]), 1e-5)
        assert abs(grad[0] - 1.0) < 1e-8

    def test_non_finite_rejected(self):
        def f(v):
            return float("nan")

        with pytest.raises(NumericError):
            finite_diff_grad(f, np.array([1.0]), 1e-5)

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            finite_diff_grad(lambda v: 0.0, np.array([1.0]), 0.0)
