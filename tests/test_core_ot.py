import itertools
import math

import numpy as np
import pytest

from swkit import IsoGaussian, Samples1d, sw2_gaussian_iso_closed, wasserstein_1d_pp
from swkit.core_ot import check_order
from swkit.errors import DimMismatch, InvalidOrder, InvalidSample, LengthMismatch


def brute_force_pp(x, y, p):
    """Oracle: minimize the mean p-th power cost over all n! pairings."""
    n = len(x)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(abs(x[i] - y[perm[i]]) ** p for i in range(n)) / n
        if cost < best:
            best = cost
    return best


class TestSamples1d:
    def test_nan_rejected(self):
        with pytest.raises(InvalidSample):
            Samples1d([1.0, math.nan])

    def test_inf_rejected(self):
        with pytest.raises(InvalidSample):
            Samples1d([1.0, math.inf])

    def test_empty_rejected(self):
        with pytest.raises(InvalidSample):
            Samples1d([])


class TestWasserstein1d:
    def test_identity_is_zero(self):
        assert wasserstein_1d_pp(Samples1d([0.0, 0.0]), Samples1d([0.0, 0.0]), 2) == 0.0

    def test_two_point_instance(self):
        # brute force over both couplings gives 1 (sorted pairing is optimal)
        x, y = [1.0, 3.0], [2.0, 4.0]
        assert brute_force_pp(x, y, 2) == 1.0
        assert wasserstein_1d_pp(Samples1d(x), Samples1d(y), 2) == pytest.approx(1.0, abs=0)

    def test_pure_translation(self):
        c = 2.5
        assert wasserstein_1d_pp(Samples1d([0.0, 0.0]), Samples1d([c, c]), 2) == c * c

    def test_matches_brute_force(self):
        g = np.random.default_rng(1234)
        for trial in range(60):
            n = int(g.integers(1, 7))
            p = float(g.choice([1.0, 2.0, 3.0]))
            x = g.uniform(-5, 5, size=n)
            y = g.uniform(-5, 5, size=n)
            got = wasserstein_1d_pp(Samples1d(x), Samples1d(y), p)
            want = brute_force_pp(x.tolist(), y.tolist(), p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_translation_invariance(self):
        g = np.random.default_rng(77)
        x = g.uniform(-4, 4, size=30)
        y = g.uniform(-4, 4, size=30)
        base = wasserstein_1d_pp(Samples1d(x), Samples1d(y), 2)
        for c in (-3.0, 0.5, 7.0):
            shifted = wasserstein_1d_pp(Samples1d(x + c), Samples1d(y + c), 2)
            assert shifted == pytest.approx(base, rel=1e-12)
        # integer-valued data shifts are exact in floating point
        xi = np.array([1.0, -2.0, 4.0])
        yi = np.array([0.0, 3.0, -1.0])
        assert wasserstein_1d_pp(Samples1d(xi + 8.0), Samples1d(yi + 8.0), 2) == \
            wasserstein_1d_pp(Samples1d(xi), Samples1d(yi), 2)

    def test_symmetry(self):
        g = np.random.default_rng(5)
        x = g.uniform(-1, 1, size=11)
        y = g.uniform(-1, 1, size=11)
        for p in (1.0, 2.0, 3.0):
            assert wasserstein_1d_pp(Samples1d(x), Samples1d(y), p) == \
                wasserstein_1d_pp(Samples1d(y), Samples1d(x), p)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            wasserstein_1d_pp(Samples1d([1.0]), Samples1d([1.0, 2.0]), 2)

    def test_order_below_one_rejected(self):
        for p in (0.5, math.nan, math.inf, -math.inf):  # NaN and inf are no order either
            with pytest.raises(InvalidOrder):
                wasserstein_1d_pp(Samples1d([1.0]), Samples1d([2.0]), p)
            with pytest.raises(InvalidOrder):
                check_order(p)

    def test_overflowing_order_rejected(self):
        # gaps of 50 and up: 50^200 is far beyond the float64 range
        with pytest.raises(InvalidOrder, match=r"p=200\.0.*overflows float64"):
            wasserstein_1d_pp(Samples1d([0.0, 1.0]), Samples1d([50.0, 60.0]), 200)
        assert wasserstein_1d_pp(Samples1d([0.0, 1.0]), Samples1d([0.5, 1.5]), 200) == 0.5 ** 200

    def test_check_order_returns_the_float(self):
        for p in (1, 1.0, 2, 3.5, 1e300):
            assert check_order(p) == float(p) and type(check_order(p)) is float


class TestGaussianClosedForms:
    def test_iso_identical(self):
        a = IsoGaussian(3, np.zeros(3), 1.0)
        assert sw2_gaussian_iso_closed(a, a) == 0.0

    def test_sliced_mean_term_scaled_by_dim(self):
        a = IsoGaussian(4, np.array([2.0, 0.0, 0.0, 0.0]), 1.5)
        b = IsoGaussian(4, np.zeros(4), 1.5)
        assert sw2_gaussian_iso_closed(a, b) == 1.0

    def test_dim_one_collapses_to_univariate(self):
        # at d = 1 the sliced and full distances are both (mean gap)^2 + (sigma gap)^2
        a = IsoGaussian(1, np.array([0.3]), 1.2)
        b = IsoGaussian(1, np.array([-0.7]), 0.4)
        expect = (0.3 - -0.7) ** 2 + (1.2 - 0.4) ** 2
        assert expect == pytest.approx(1.64, rel=1e-15)
        assert sw2_gaussian_iso_closed(a, b) == pytest.approx(expect, rel=1e-15)

    def test_sliced_never_exceeds_full(self):
        g = np.random.default_rng(42)
        for _ in range(50):
            d = int(g.integers(1, 8))
            a = IsoGaussian(d, g.uniform(-3, 3, d), float(g.uniform(0, 2)))
            b = IsoGaussian(d, g.uniform(-3, 3, d), float(g.uniform(0, 2)))
            # the full squared 2-distance: ||mean gap||^2 + d * (sigma gap)^2
            delta = a.mean - b.mean
            w2_sq = float(delta @ delta) + d * (a.sigma - b.sigma) ** 2
            assert sw2_gaussian_iso_closed(a, b) <= w2_sq + 1e-15
            # both are zero for identical inputs in any dimension
            twin = IsoGaussian(d, a.mean.copy(), a.sigma)
            assert sw2_gaussian_iso_closed(a, twin) == 0.0

    def test_symmetry(self):
        g = np.random.default_rng(9)
        a = IsoGaussian(5, g.uniform(-1, 1, 5), 0.7)
        b = IsoGaussian(5, g.uniform(-1, 1, 5), 1.9)
        assert sw2_gaussian_iso_closed(a, b) == sw2_gaussian_iso_closed(b, a)

    def test_dim_mismatch_rejected(self):
        a = IsoGaussian(2, np.zeros(2), 1.0)
        b = IsoGaussian(3, np.zeros(3), 1.0)
        with pytest.raises(DimMismatch):
            sw2_gaussian_iso_closed(a, b)

    def test_mean_length_checked(self):
        with pytest.raises(DimMismatch):
            IsoGaussian(3, np.zeros(2), 1.0)
