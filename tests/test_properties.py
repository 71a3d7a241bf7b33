"""Property tests of the invariances of sliced distances, for ``sw_hat`` and
for every method of ``estimate()`` at order 2.

Translating both inputs by one vector, rotating both by one orthogonal map,
permuting the rows of either input and swapping the inputs leave the squared
sliced 2-distance unchanged; scaling both inputs by a multiplies it by a^2.
Monte Carlo keeps these invariances direction by direction, so they hold for
any projection count and seed. Values are compared to a tolerance relative to
the squared size of the data, except where a bit-exact result is promised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swkit.estimators import PROJECTION_BLOCK, EmpiricalDistribution, Method, estimate, sw_hat

L = 64
SEED = 5
REL = 1e-9
SETTINGS = settings(max_examples=20, deadline=None)

ESTIMATORS = {"sw_hat": lambda mu, nu: sw_hat(mu, nu).value_sq}
ESTIMATORS.update({
    method.value: (lambda mu, nu, method=method:
                   estimate(mu, nu, method, L=L, seed=SEED).value_sq)
    for method in Method
})
# The raw moment surrogate skips centering on purpose: translation changes it.
TRANSLATION_INVARIANT = [name for name in ESTIMATORS if name != Method.RAW_MOMENT.value]


@st.composite
def pairs(draw, max_n=10, max_d=5):
    """Two datasets of the same shape, entries in [-10, 10]."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, max_d))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    x = draw(hnp.arrays(np.float64, (n, d), elements=entries))
    y = draw(hnp.arrays(np.float64, (n, d), elements=entries))
    return x, y


def value(name, x, y) -> float:
    return ESTIMATORS[name](EmpiricalDistribution(x), EmpiricalDistribution(y))


def assert_close(got, want, *arrays):
    scale = 1.0 + max(float(np.max(np.abs(a))) for a in arrays) ** 2
    assert abs(got - want) <= REL * scale, (got, want)


@pytest.mark.parametrize("name", TRANSLATION_INVARIANT)
@SETTINGS
@given(pair=pairs(), shift=st.floats(-100.0, 100.0))
def test_translation_of_both_inputs(name, pair, shift):
    x, y = pair
    c = shift * np.linspace(-1.0, 1.0, x.shape[1])
    assert_close(value(name, x + c, y + c), value(name, x, y), x + c, y + c)


@SETTINGS
@given(pair=pairs(), seed=st.integers(0, 2**32 - 1))
def test_rotation_of_both_inputs(pair, seed):
    x, y = pair
    d = x.shape[1]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    assert_close(value("sw_hat", x @ q.T, y @ q.T), value("sw_hat", x, y), x, y)


@pytest.mark.parametrize("name", list(ESTIMATORS))
@SETTINGS
@given(pair=pairs(), seed=st.integers(0, 2**32 - 1))
def test_row_permutation(name, pair, seed):
    x, y = pair
    g = np.random.default_rng(seed)
    px, py = x[g.permutation(len(x))], y[g.permutation(len(y))]
    assert_close(value(name, px, py), value(name, x, y), x, y)


@pytest.mark.parametrize("name", list(ESTIMATORS))
@SETTINGS
@given(pair=pairs(), a=st.floats(0.1, 10.0), negative=st.booleans())
def test_scaling_both_inputs_scales_by_a_squared(name, pair, a, negative):
    x, y = pair
    a = -a if negative else a
    assert_close(value(name, a * x, a * y), a * a * value(name, x, y), a * x, a * y)


@pytest.mark.parametrize("name", list(ESTIMATORS))
@SETTINGS
@given(pair=pairs())
def test_symmetry_is_bit_exact(name, pair):
    x, y = pair
    assert value(name, x, y) == value(name, y, x)


@SETTINGS
@given(pair=pairs())
def test_closed_form_gauss_is_deterministic_bit_for_bit(pair):
    x, y = pair
    closed_form = value(Method.CLOSED_FORM_GAUSSIAN.value, x, y)
    assert closed_form == value(Method.DETERMINISTIC.value, x, y)


@pytest.mark.parametrize("num_projections", [PROJECTION_BLOCK - 1, PROJECTION_BLOCK,
                                             PROJECTION_BLOCK + 1, 2 * PROJECTION_BLOCK - 1,
                                             2 * PROJECTION_BLOCK + 1])
@settings(max_examples=3, deadline=None)
@given(pair=pairs(max_n=6, max_d=3), seed=st.integers(0, 2**32 - 1))
def test_worker_count_is_bit_exact_at_block_boundaries(num_projections, pair, seed):
    mu, nu = (EmpiricalDistribution(a) for a in pair)
    one, two = (estimate(mu, nu, "mc-sphere", L=num_projections, seed=seed, workers=workers)
                for workers in (1, 2))
    assert one.value_sq == two.value_sq
