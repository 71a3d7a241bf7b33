"""Property tests of the invariances of sliced distances, for ``sw_hat`` and
for every method of ``estimate()`` at order 2, and of the exact moment
statistics of ``moment_stats``.

Translating both inputs by one vector, rotating both by one orthogonal map,
permuting the rows of either input and swapping the inputs leave the squared
sliced 2-distance unchanged; scaling both inputs by a multiplies it by a^2.
Monte Carlo keeps these invariances direction by direction, so they hold for
any projection count and seed. Values are compared to a tolerance relative to
the squared size of the data, except where a bit-exact result is promised.

Norms and inner products do not change under a rotation or a reordering of
the rows, so neither do the exact moment statistics; and for all n^2 pairs
Cauchy-Schwarz gives beta1 <= beta2 <= m2_raw.

Writing a dataset with ``save_csv`` and reading it back with ``load_csv``
returns the same bits for any finite values.

Monte Carlo direction l is drawn from ``rng.substream(seed, l)``. The sampler
re-keys one Philox generator with keys computed by ``rng.philox_keys``, and
that must give the same keys, the same generator state and the same
directions as building each stream, at seeds of up to five 32-bit words and
indices on both sides of 2^32.

Examples are derandomized: every run draws the same ones.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swkit import rng
from swkit.datagen import load_csv, save_csv
from swkit.estimators import (
    _PAIR_TILE,
    PROJECTION_BLOCK,
    EmpiricalDistribution,
    Method,
    ProjectionLaw,
    _fresh_philox_state,
    estimate,
    moment_stats,
    sample_directions,
    sw_hat,
)

L = 64
SEED = 5
REL = 1e-9
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)

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


@pytest.mark.parametrize("num_projections", [PROJECTION_BLOCK - 1, PROJECTION_BLOCK,
                                             PROJECTION_BLOCK + 1, 2 * PROJECTION_BLOCK - 1,
                                             2 * PROJECTION_BLOCK + 1])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(pair=pairs(max_n=6, max_d=3), seed=st.integers(0, 2**32 - 1))
def test_worker_count_is_bit_exact_at_block_boundaries(num_projections, pair, seed):
    mu, nu = (EmpiricalDistribution(a) for a in pair)
    one, two = (estimate(mu, nu, "mc-sphere", L=num_projections, seed=seed, workers=workers)
                for workers in (1, 2))
    assert one.value_sq == two.value_sq


@st.composite
def datasets(draw, max_n=2 * _PAIR_TILE + 1, max_d=6):
    """One Gaussian dataset, shifted and scaled, that may span several Gram
    tiles; the rows come from a drawn seed so large n stays cheap."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    scale = draw(st.floats(1e-3, 1e3))
    shift = draw(st.floats(-100.0, 100.0))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g.standard_normal((n, d)) * scale + shift * np.linspace(-1.0, 1.0, d)


def moments(x):
    return moment_stats(EmpiricalDistribution(x), "all")


def assert_same_moments(got, want):
    for name in ("m2_raw", "beta1", "beta2"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12), name
    # alpha averages differences of squared norms, so its rounding error is
    # relative to the squared norms, not to alpha itself
    assert abs(got.alpha - want.alpha) <= 1e-12 * want.m2_raw, (got.alpha, want.alpha)


@SETTINGS
@given(x=datasets(), seed=st.integers(0, 2**32 - 1))
def test_moment_stats_row_permutation(x, seed):
    perm = np.random.default_rng(seed).permutation(len(x))
    assert_same_moments(moments(x[perm]), moments(x))


@SETTINGS
@given(x=datasets(), seed=st.integers(0, 2**32 - 1))
def test_moment_stats_rotation(x, seed):
    d = x.shape[1]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    assert_same_moments(moments(x @ q.T), moments(x))


@SETTINGS
@given(x=datasets())
def test_moment_stats_cauchy_schwarz_chain(x):
    stats = moments(x)
    assert stats.beta1 <= stats.beta2 * (1 + 1e-12)
    assert stats.beta2 <= stats.m2_raw * (1 + 1e-12)


EXTREMES = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                     [-1.7976931348623157e308, 2.2250738585072009e-308, -5e-324]])


@SETTINGS
@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=20),
                   elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(x=EXTREMES)
def test_csv_round_trip_is_bit_exact(x):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        save_csv(EmpiricalDistribution(x), path)
        back = load_csv(path).data
    assert back.shape == x.shape
    assert back.view(np.uint64).tolist() == x.view(np.uint64).tolist()


# One to five 32-bit words, and the word boundaries on either side.
EDGE_SEEDS = [0, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**70 + 3, 2**127, 2**130 + 9]
# Indices around 0, 2^32 (where l gains a second word), 2^40 and the top of 2^64.
EDGE_STARTS = [0, 2**32 - 3, 2**40 - 3, 2**64 - 6]


def published_directions(d, seed, count, law, start):
    """Directions start..start+count-1, each built from its own stream."""
    rows = []
    for l in range(start, start + count):
        g = rng.substream(seed, l).standard_normal(d)
        rows.append(g / np.linalg.norm(g) if law is ProjectionLaw.SPHERE_UNIFORM
                    else g / math.sqrt(d))
    return np.array(rows)


@SETTINGS
@given(d=st.integers(1, 12), seed=st.integers(0, 2**70), count=st.integers(1, 6),
       start=st.integers(0, 2**33), law=st.sampled_from(list(ProjectionLaw)))
@example(d=3, seed=2**70, count=6, start=2**32 - 3, law=ProjectionLaw.SPHERE_UNIFORM)
@example(d=1, seed=0, count=6, start=2**32 - 3, law=ProjectionLaw.GAUSSIAN_SCALED)
def test_sample_directions_are_the_per_index_streams(d, seed, count, start, law):
    got = sample_directions(d, seed, count, law, start=start)
    want = published_directions(d, seed, count, law, start)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("start", EDGE_STARTS)
def test_philox_keys_are_seed_sequence_keys(seed, start):
    keys = rng.philox_keys(seed, start, 6)
    assert keys.dtype == np.uint64 and keys.shape == (6, 2)
    for i, key in enumerate(keys):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(start + i,))
        assert key.tolist() == seq.generate_state(2, np.uint64).tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("index", [0, 2**32 - 1, 2**32, 2**40 + 1, 2**64 - 1])
def test_rekeyed_generator_state_is_the_substream_state(seed, index):
    bit_generator = np.random.Philox(1)
    generator = np.random.Generator(bit_generator)
    generator.integers(0, 2**32, size=3, dtype=np.uint32)  # leaves a half-used word
    generator.standard_normal(5)  # moves the counter and the buffer position
    bit_generator.state = _fresh_philox_state(rng.philox_keys(seed, index, 1)[0].tolist())
    stream = rng.substream(seed, index)
    got, want = bit_generator.state, stream.bit_generator.state
    assert got.keys() == want.keys()
    for name in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
        assert got[name] == want[name], name
    for name in ("counter", "key"):
        assert got["state"][name].tolist() == want["state"][name].tolist(), name
    assert got["buffer"].tolist() == want["buffer"].tolist()
    assert generator.standard_normal(9).tobytes() == stream.standard_normal(9).tobytes()
