import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import swkit
import swkit.bench as bench
from swkit import (
    EmpiricalDistribution,
    IsoGaussian,
    Method,
    MomentStats,
    ProjectionLaw,
    SwEstimate,
    WeakDepParams,
    autocov_decay,
    center,
    estimate,
    gaussian_projection_constant,
    indep_bound,
    moment_stats,
    monte_carlo_sw_cv,
    monte_carlo_sw_pp,
    project,
    sample_directions,
    sw2_gaussian_iso_closed,
    sw_hat,
    sw_moment_approx_sq,
    theorem2_gap_bound,
    wasserstein_1d_pp,
    weakdep_bound,
    xi_d,
)
from swkit import estimators
from swkit import rng as swrng
from swkit.core_ot import _FINITE_BLOCK, Samples1d, sorted_gap_costs
from swkit.estimators import (
    _CENTER_BLOCK_BYTES,
    _KAPPA2_MAX,
    _PAIR_CHUNK,
    _PAIR_TILE,
    PAIR_BUDGET_DEFAULT,
    CV_MIN_PROJECTIONS,
    PAIR_FULL_LIMIT,
    PROJECTION_BLOCK,
    _mean_and_scaled_m2,
    _resolve_pair_count,
    check_pair_budget,
    exact_pair_limit,
)
from swkit.errors import (
    DimMismatch,
    InsufficientSamples,
    InvalidLag,
    InvalidOrder,
    InvalidSample,
    LengthMismatch,
)


# Orders outside [1, inf), NaN included.
BAD_ORDERS = (0.5, math.nan, math.inf, -math.inf)


def make_dist(seed, n, d, shift=0.0, scale=1.0):
    g = np.random.default_rng(seed)
    return EmpiricalDistribution(g.standard_normal((n, d)) * scale + shift)


# (workers, n, d, bound in bytes) of the Monte Carlo peak-memory tests at
# L = 2 * 512 + 1, where ceil(workers / 2) teams each hold one (2, 512, n)
# workspace and one (512, d) direction block. At d = 50 the block fits in
# 4 MiB of slack per team; at d = 2000 it is counted, with 1 MiB of slack.
PEAK_MEMORY_CASES = [
    *(pytest.param(w, 5000, 50, -(-w // 2) * (2 * 512 * 5000 * 8 + 4 * 2 ** 20), id=str(w))
      for w in (1, 2, 3, 4)),
    *(pytest.param(w, 200, 2000, -(-w // 2) * (2 * 512 * 200 * 8 + 512 * 2000 * 8) + 2 ** 20,
                   id=f"wide-d-{w}") for w in (1, 2, 3, 4)),
]


def peak_memory_of(estimator, n, d, workers):
    """tracemalloc peak of ``estimator`` on an (n, d) pair at L = 2 * 512 + 1."""
    mu, nu = make_dist(66, n, d), make_dist(67, n, d, shift=0.5)
    tracemalloc.start()
    try:
        estimator(mu, nu, 2 * PROJECTION_BLOCK + 1, workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEmpiricalDistribution:
    def test_shape_and_props(self):
        dist = EmpiricalDistribution(np.arange(6.0).reshape(3, 2))
        assert dist.n == 3 and dist.dim == 2

    def test_one_dim_input_becomes_column(self):
        dist = EmpiricalDistribution(np.array([1.0, 2.0, 3.0]))
        assert dist.n == 3 and dist.dim == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidSample):
            EmpiricalDistribution(np.array([[1.0, np.nan]]))

    def test_data_is_read_only(self):
        dist = make_dist(0, 4, 3)
        with pytest.raises(ValueError):
            dist.data[0, 0] = 7.0

    def test_writeable_input_is_copied(self):
        source = np.arange(6.0).reshape(3, 2)
        dist = EmpiricalDistribution(source)
        source[0, 0] = 99.0
        assert dist.data is not source
        np.testing.assert_array_equal(dist.data, np.arange(6.0).reshape(3, 2))
        assert source.flags.writeable  # the caller's array is left alone

    def test_read_only_float64_c_contiguous_input_is_kept(self):
        source = np.arange(6.0).reshape(3, 2)
        source.flags.writeable = False
        assert EmpiricalDistribution(source).data is source

    @pytest.mark.parametrize("source", [
        np.arange(6, dtype=np.float32).reshape(3, 2),
        np.arange(6.0).reshape(2, 3).T,
    ], ids=["float32", "fortran-order"])
    def test_other_read_only_inputs_are_copied(self, source):
        source.flags.writeable = False
        data = EmpiricalDistribution(source).data
        assert data is not source
        assert data.dtype == np.float64 and data.flags.c_contiguous
        np.testing.assert_array_equal(data, source)

    def test_read_only_input_is_still_checked(self):
        bad = np.array([[1.0, np.inf]])
        bad.flags.writeable = False
        with pytest.raises(InvalidSample, match="finite"):
            EmpiricalDistribution(bad)
        empty = np.empty((0, 2))
        empty.flags.writeable = False
        with pytest.raises(InvalidSample, match="shape"):
            EmpiricalDistribution(empty)

    def test_finiteness_check_allocates_no_array_sized_temporary(self):
        # a bool mask of the whole array would alone be 1.9 MiB
        data = np.ones((2000, 1000))
        data.flags.writeable = False
        tracemalloc.start()
        try:
            EmpiricalDistribution(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, _FINITE_BLOCK - 1, 2 * _FINITE_BLOCK - 1,
                                       3 * _FINITE_BLOCK + 50, 3 * _FINITE_BLOCK + 99],
                             ids=["first", "end-of-first-block", "end-of-a-block", "tail",
                                  "last"])
    def test_nonfinite_found_in_every_block(self, bad, index):
        values = np.ones(3 * _FINITE_BLOCK + 100)
        values[index] = bad
        with pytest.raises(InvalidSample, match="samples must be finite"):
            Samples1d(values)
        data = values.reshape(-1, 4)
        data.flags.writeable = False
        with pytest.raises(InvalidSample, match="data must be finite"):
            EmpiricalDistribution(data)


class TestCenterProject:
    def test_center_single_sample(self):
        dist = EmpiricalDistribution(np.array([[2.0, -1.0]]))
        mean, centered = center(dist)
        np.testing.assert_array_equal(mean, [2.0, -1.0])
        np.testing.assert_array_equal(centered.data, [[0.0, 0.0]])

    def test_center_two_rows(self):
        dist = EmpiricalDistribution(np.array([[1.0, 0.0], [3.0, 0.0]]))
        mean, centered = center(dist)
        np.testing.assert_array_equal(mean, [2.0, 0.0])
        np.testing.assert_array_equal(centered.data, [[-1.0, 0.0], [1.0, 0.0]])

    def test_center_idempotent(self):
        dist = make_dist(3, 50, 4)
        _, centered = center(dist)
        mean2, centered2 = center(centered)
        scale = np.max(np.abs(centered.data))
        assert np.max(np.abs(mean2)) <= 1e-12 * scale
        np.testing.assert_allclose(centered2.data, centered.data, atol=1e-12 * scale)

    def test_center_does_not_copy_the_difference(self):
        data = np.ones((2000, 1000))
        data.flags.writeable = False
        dist = EmpiricalDistribution(data)
        tracemalloc.start()
        try:
            center(dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * data.nbytes  # a second copy would be 2x

    def test_project_basis_vector(self):
        dist = make_dist(1, 20, 5)
        e1 = np.eye(5)[0]
        np.testing.assert_array_equal(project(dist, e1).values, dist.data[:, 0])
        np.testing.assert_array_equal(project(dist, 2.0 * e1).values, 2.0 * dist.data[:, 0])
        np.testing.assert_array_equal(project(dist, np.zeros(5)).values, np.zeros(20))

    def test_project_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            project(make_dist(1, 5, 3), np.ones(4))


class TestMonteCarlo:
    def test_identical_inputs_give_exact_zero(self):
        dist = make_dist(7, 40, 6)
        for law in ProjectionLaw:
            est, per = monte_carlo_sw_pp(dist, dist, 64, p=2.0, law=law, seed=1)
            assert est.value_sq == 0.0
            assert np.all(per == 0.0)

    def test_point_mass_separation_concentrates_at_csq_over_d(self):
        # point masses at 0 and c*e1: every projection cost is (c*theta_1)^2,
        # whose sphere-average is c^2/d
        d, c, L = 6, 3.0, 4000
        mu = EmpiricalDistribution(np.zeros((10, d)))
        nu = EmpiricalDistribution(np.tile(np.eye(d)[0] * c, (10, 1)))
        est, per = monte_carlo_sw_pp(mu, nu, L, p=2.0, law=ProjectionLaw.SPHERE_UNIFORM, seed=3)
        se = per.std(ddof=1) / math.sqrt(L)
        assert abs(est.value_sq - c * c / d) <= 4.0 * se

    def test_per_projection_matches_published_stream_contract(self):
        # direction l is drawn from the stream keyed (seed, l); replaying that
        # through project + the 1D solver must reproduce each value
        mu = make_dist(10, 25, 4, shift=0.5)
        nu = make_dist(11, 25, 4, scale=2.0)
        seed, L, p = 99, 5, 2.0
        for law in ProjectionLaw:
            est, per = monte_carlo_sw_pp(mu, nu, L, p=p, law=law, seed=seed)
            for l in range(L):
                g = swrng.substream(seed, l).standard_normal(4)
                theta = g / np.linalg.norm(g) if law is ProjectionLaw.SPHERE_UNIFORM \
                    else g / math.sqrt(4)
                want = wasserstein_1d_pp(project(mu, theta), project(nu, theta), p)
                assert per[l] == pytest.approx(want, rel=1e-12)
            assert est.value_sq == pytest.approx(float(np.mean(per)), rel=0, abs=0)

    def test_sampler_rows_are_the_published_stream_directions(self):
        # the same replay as above: row l of the public sampler is direction l
        seed, L, d = 99, 5, 4
        for law in ProjectionLaw:
            dirs = sample_directions(d, seed, L, law)
            for l in range(L):
                g = swrng.substream(seed, l).standard_normal(d)
                theta = g / np.linalg.norm(g) if law is ProjectionLaw.SPHERE_UNIFORM \
                    else g / math.sqrt(d)
                np.testing.assert_array_equal(dirs[l], theta)
            np.testing.assert_array_equal(sample_directions(d, seed, L - 2, law, start=2),
                                          dirs[2:])

    def test_out_receives_the_rows_of_a_fresh_draw(self):
        # Drawn into rows 2..4 of a larger array: the same bits as a new
        # array, the view itself returned, and no other row written.
        for law in ProjectionLaw:
            out = np.full((6, 4), np.nan)
            got = sample_directions(4, 99, 3, law, start=5, out=out[2:5])
            assert np.shares_memory(got, out)
            assert out[2:5].tobytes() == sample_directions(4, 99, 3, law, start=5).tobytes()
            assert np.isnan(out[[0, 1, 5]]).all()
        with pytest.raises(InvalidSample, match="out must have shape"):
            sample_directions(4, 99, 3, out=np.empty((3, 5)))

    @pytest.mark.parametrize("zeroed", [0, 2, 4])
    def test_a_zero_draw_is_redrawn_from_the_same_stream(self, monkeypatch, zeroed):
        # A zero first draw, of probability zero, is forced on one direction:
        # its row must be the next d normals of the same stream, normalized,
        # and no other row may move.
        seed, start, count, d = 99, 3, 5, 4
        key = swrng.philox_keys(seed, start + zeroed, 1)[0]
        g = swrng.substream(seed, start + zeroed)
        g.standard_normal(d)
        want = g.standard_normal(d)
        want /= math.sqrt(float(want @ want))
        plain = sample_directions(d, seed, count, start=start)

        class ZeroFirstDraw(np.random.Generator):
            def standard_normal(self, *args, out=None, **kwargs):
                state = self.bit_generator.state["state"]
                first = (state["key"] == key).all() and not state["counter"].any()
                drawn = super().standard_normal(*args, out=out, **kwargs)
                if first:
                    drawn[...] = 0.0
                return drawn

        monkeypatch.setattr(np.random, "Generator", ZeroFirstDraw)
        dirs = sample_directions(d, seed, count, start=start)
        assert dirs[zeroed].tobytes() == want.tobytes()
        others = np.arange(count) != zeroed
        assert dirs[others].tobytes() == plain[others].tobytes()

    def test_worker_count_never_changes_bits(self):
        # Two workers share a block, one per input; L = 1 leaves one of them
        # an empty row half, and odd counts leave a span on one thread.
        mu = make_dist(20, 60, 5)
        nu = make_dist(21, 60, 5, shift=1.0)
        for L in (1, 7, PROJECTION_BLOCK + 1, 2500):
            base, per_base = monte_carlo_sw_pp(mu, nu, L, seed=8, workers=1)
            for workers in (2, 3, 4, 5):
                est, per = monte_carlo_sw_pp(mu, nu, L, seed=8, workers=workers)
                assert est.value_sq == base.value_sq, (L, workers)
                np.testing.assert_array_equal(per, per_base)

    def test_std_error_is_that_of_the_per_projection_mean(self):
        mu = make_dist(22, 60, 5)
        nu = make_dist(23, 60, 5, shift=1.0)
        for law in ProjectionLaw:
            for p in (1.0, 2.0, 3.0):
                est, per = monte_carlo_sw_pp(mu, nu, 1500, p=p, law=law, seed=4)
                assert est.std_error == float(per.std(ddof=1)) / math.sqrt(1500)
                assert est.std_error > 0.0

    def test_std_error_is_zero_for_one_projection(self):
        mu, nu = make_dist(24, 30, 3), make_dist(25, 30, 3, shift=2.0)
        est, per = monte_carlo_sw_pp(mu, nu, 1, seed=6)
        assert est.value_sq == per[0] > 0.0
        assert est.std_error == 0.0

    def test_std_error_bits_do_not_depend_on_workers(self):
        mu, nu = make_dist(26, 60, 5), make_dist(27, 60, 5, scale=2.0)
        one, _ = monte_carlo_sw_pp(mu, nu, 2100, seed=9, workers=1)
        two, _ = monte_carlo_sw_pp(mu, nu, 2100, seed=9, workers=2)
        assert one.std_error.hex() == two.std_error.hex()

    def test_direction_laws_agree_at_order_two(self):
        mu = make_dist(30, 150, 6)
        nu = make_dist(31, 150, 6, shift=0.8, scale=1.5)
        L = 4000
        es, ps = monte_carlo_sw_pp(mu, nu, L, law=ProjectionLaw.SPHERE_UNIFORM, seed=1)
        eg, pg = monte_carlo_sw_pp(mu, nu, L, law=ProjectionLaw.GAUSSIAN_SCALED, seed=2)
        se = math.sqrt(ps.var(ddof=1) / L + pg.var(ddof=1) / L)
        assert abs(es.value_sq - eg.value_sq) <= 3.0 * se

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_law_ratio_matches_projection_constant(self, p):
        d, L = 5, 10000
        mu = make_dist(40, 200, d)
        nu = make_dist(41, 200, d, shift=0.5, scale=2.0)
        eg, pg = monte_carlo_sw_pp(mu, nu, L, p=p, law=ProjectionLaw.GAUSSIAN_SCALED, seed=5)
        es, ps = monte_carlo_sw_pp(mu, nu, L, p=p, law=ProjectionLaw.SPHERE_UNIFORM, seed=6)
        # delta method on the p-th roots
        a, b = eg.value_sq ** (1 / p), es.value_sq ** (1 / p)
        var_a = pg.var(ddof=1) / L * (a ** (1 - p) / p) ** 2
        var_b = ps.var(ddof=1) / L * (b ** (1 - p) / p) ** 2
        ratio = a / b
        se = ratio * math.sqrt(var_a / a ** 2 + var_b / b ** 2)
        assert abs(ratio - gaussian_projection_constant(d, p)) <= 3.0 * se

    def test_matches_isotropic_gaussian_closed_form(self):
        d, n = 8, 3000
        g = np.random.default_rng(50)
        m1, m2 = np.zeros(d), np.full(d, 0.6)
        mu = EmpiricalDistribution(g.standard_normal((n, d)) + m1)
        nu = EmpiricalDistribution(2.0 * g.standard_normal((n, d)) + m2)
        closed = sw2_gaussian_iso_closed(IsoGaussian(d, m1, 1.0), IsoGaussian(d, m2, 2.0))
        est, per = monte_carlo_sw_pp(mu, nu, 3000, seed=7)
        tol = 3.0 * per.std(ddof=1) / math.sqrt(3000) + 0.1 * closed
        assert abs(est.value_sq - closed) <= tol

    def test_estimate_carries_provenance(self):
        mu, nu = make_dist(1, 10, 2), make_dist(2, 10, 2)
        est, _ = monte_carlo_sw_pp(mu, nu, 17, seed=123)
        assert est.method is Method.MONTE_CARLO_SPHERE
        assert est.num_projections == 17
        assert est.seed == 123
        assert est.wall_time_ns > 0

    def test_one_worker_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        mu, nu = make_dist(1, 10, 2), make_dist(2, 10, 2)
        monte_carlo_sw_pp(mu, nu, 2 * PROJECTION_BLOCK + 1, workers=1)
        assert started == []
        monte_carlo_sw_pp(mu, nu, 2 * PROJECTION_BLOCK + 1, workers=2)
        assert started  # the counter sees a pool's threads

    @pytest.mark.parametrize("workers,n,d,bound", PEAK_MEMORY_CASES)
    def test_peak_memory_is_one_workspace_per_worker(self, workers, n, d, bound):
        # Each span reuses one (2, 512, n) workspace, and two workers share a
        # span, one per input, so a call holds ceil(workers / 2) of them.
        # One workspace per worker reads 82 MB at two workers at d = 50. At
        # d = 2000 the span's (512, d) direction block outweighs its
        # workspace; its members draw straight into it, where a temporary
        # per member and a copy read 8 MiB over the bound at two workers.
        peak = peak_memory_of(monte_carlo_sw_pp, n, d, workers)
        assert peak < bound, f"peak {peak / 2 ** 20:.2f} MiB, bound {bound / 2 ** 20:.2f} MiB"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("L", [PROJECTION_BLOCK + 3, 2 * PROJECTION_BLOCK - 1])
    def test_reused_workspace_leaks_no_rows_between_blocks(self, L, p, workers):
        # A short last block fills only its own rows of a workspace that the
        # full block before it wrote; each block must equal fresh projections.
        mu, nu = make_dist(68, 30, 4), make_dist(69, 30, 4, scale=2.0)
        _, got = monte_carlo_sw_pp(mu, nu, L, p=p, seed=9, workers=workers)
        want = []
        for lo in range(0, L, PROJECTION_BLOCK):
            dirs = sample_directions(4, 9, min(PROJECTION_BLOCK, L - lo), start=lo)
            want.append(sorted_gap_costs(dirs @ mu.data.T, dirs @ nu.data.T, p))
        assert got.tolist() == np.concatenate(want).tolist()

    def test_many_workers_never_share_a_workspace(self):
        # More workers than cores and a short switch interval: two blocks
        # writing one workspace at once would change their values. The two
        # threads of a span write one workspace, each its own side and then
        # its own rows, and start the next block only when both are done.
        mu, nu = make_dist(70, 200, 5), make_dist(71, 200, 5, shift=0.3)
        L = 16 * PROJECTION_BLOCK + 7
        _, want = monte_carlo_sw_pp(mu, nu, L, seed=4, workers=1)
        got = []
        runner = threading.Thread(
            target=lambda: got.append(monte_carlo_sw_pp(mu, nu, L, seed=4, workers=8)[1]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert got[0].tolist() == want.tolist()

    def test_input_validation(self):
        with pytest.raises(DimMismatch):
            monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 10, 3), 4)
        with pytest.raises(LengthMismatch):
            monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 11, 2), 4)
        for p in (0.3,) + BAD_ORDERS:
            with pytest.raises(InvalidOrder):
                monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 10, 2), 4, p=p)
        with pytest.raises(InvalidSample):
            monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 10, 2), 0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_overflowing_order_fails_on_the_first_block(self, monkeypatch, workers):
        # At two workers both threads share the block, and either may fail:
        # the error must surface, neither may draw past block 0, and no
        # thread may outlive the call. Three workers make a team of two on
        # blocks 0-1 and a team of one on block 2, which each stop at their
        # first block.
        g = np.random.default_rng(0)
        mu = EmpiricalDistribution(g.standard_normal((20, 3)) * 50.0)
        nu = EmpiricalDistribution(g.gamma(2.0, 1.0, size=(20, 3)))
        draws = []  # (first direction, count) of each draw
        draw = estimators.sample_directions
        monkeypatch.setattr(estimators, "sample_directions",
                            lambda *args, **kw: draws.append((kw["start"], args[2]))
                            or draw(*args, **kw))
        threads = threading.active_count()
        with pytest.raises(InvalidOrder, match=r"p=200\.0.*overflows float64"):
            monte_carlo_sw_pp(mu, nu, 2 * PROJECTION_BLOCK + 1, p=200, workers=workers)
        half = PROJECTION_BLOCK // 2
        first_blocks = {1: [(0, PROJECTION_BLOCK)], 2: [(0, half), (half, half)],
                        3: [(0, half), (half, half), (2 * PROJECTION_BLOCK, 1)]}
        assert sorted(draws) == first_blocks[workers]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("call", [
        lambda: monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 10, 2), 4, seed=-1),
        lambda: moment_stats(make_dist(1, 10, 2), pair_budget=50, seed=-1),
        lambda: sample_directions(3, seed=-1, count=2),
        lambda: swrng.philox_keys(-1, 0, 2),
        lambda: swrng.philox_keys(0, -1, 2),
        lambda: swrng.substream(0, "label", -3),
    ], ids=["monte_carlo_sw_pp", "moment_stats", "sample_directions", "philox_keys",
            "philox_keys_start", "substream"])
    def test_negative_seed_is_invalid_sample(self, call):
        with pytest.raises(InvalidSample):
            call()


def cv_reference(mu, nu, L, seed, columns=(0, 1, 2)):
    """mc-cv by the textbook route: the intercept of the least-squares fit of
    the plain per-direction costs on the chosen control variates, evaluated
    at their expectations, and the residual standard error."""
    d = mu.dim
    dirs = sample_directions(d, seed, L)
    x, y = dirs @ mu.data.T, dirs @ nu.data.T
    _, w = monte_carlo_sw_pp(mu, nu, L, seed=seed)
    columns = list(columns)
    c = np.column_stack(((x.mean(1) - y.mean(1)) ** 2, x.var(1), y.var(1)))[:, columns]
    gap = mu.data.mean(0) - nu.data.mean(0)
    expected = np.array([gap @ gap, mu.data.var(0).sum(), nu.data.var(0).sum()])[columns] / d
    design = np.column_stack((np.ones(L), c))
    coef = np.linalg.lstsq(design, w, rcond=None)[0]
    residuals = w - design @ coef
    se = math.sqrt(residuals @ residuals / (L - design.shape[1]) / L)
    return coef[0] + coef[1:] @ expected, se


def scenario_pair(scenario, n, d, seed):
    alphas = (0.5,) if scenario.noise is not None else ()
    cfg = bench.ExperimentConfig(scenario=scenario, d_grid=(d,), n=n, runs=1, alpha_list=alphas)
    mu, nu, _ = bench._generate_pair(cfg, d, alphas[0] if alphas else None, seed)
    return mu, nu


class TestMonteCarloCv:
    @pytest.mark.parametrize("n, d, L, workers", [
        (25, 4, 8, 1), (60, 5, PROJECTION_BLOCK, 1), (60, 5, 2 * PROJECTION_BLOCK + 3, 2),
        (40, 30, 300, 1),
    ])
    def test_per_direction_costs_are_plain_monte_carlo_bits(self, n, d, L, workers):
        mu, nu = make_dist(80, n, d, shift=0.3), make_dist(81, n, d, scale=1.7)
        cv, w = monte_carlo_sw_cv(mu, nu, L, seed=12, workers=workers)
        _, plain = monte_carlo_sw_pp(mu, nu, L, seed=12)
        assert w.tobytes() == plain.tobytes()
        assert (cv.method, cv.num_projections, cv.seed) == (Method.MONTE_CARLO_CV, L, 12)
        assert cv.wall_time_ns > 0

    @pytest.mark.parametrize("L", [8, 128, 600, 2 * PROJECTION_BLOCK,
                                   4 * PROJECTION_BLOCK - 1, 4 * PROJECTION_BLOCK + 1])
    def test_worker_count_never_changes_bits(self, L):
        mu, nu = make_dist(82, 50, 6), make_dist(83, 50, 6, shift=0.4, scale=1.3)
        base, w_base = monte_carlo_sw_cv(mu, nu, L, seed=3, workers=1)
        for workers in (2, 3, 5, 8):
            est, w = monte_carlo_sw_cv(mu, nu, L, seed=3, workers=workers)
            assert (est.value_sq.hex(), est.std_error.hex()) == \
                (base.value_sq.hex(), base.std_error.hex())
            assert w.tobytes() == w_base.tobytes()
        via_label = estimate(mu, nu, "mc-cv", L=L, seed=3, workers=8)
        assert (via_label.value_sq, via_label.std_error) == (base.value_sq, base.std_error)

    @pytest.mark.parametrize("d", [5, 50])
    def test_agrees_with_plain_monte_carlo_in_every_scenario(self, d):
        # Against plain sphere Monte Carlo on the same pair, never a closed
        # form: both estimate the sliced distance of the two samples.
        for i, scenario in enumerate(bench.Scenario):
            mu, nu = scenario_pair(scenario, 200, d, seed=900 + i)
            plain, _ = monte_carlo_sw_pp(mu, nu, 200_000, seed=1, workers=2)
            for L in (64, 512):
                cv, _ = monte_carlo_sw_cv(mu, nu, L, seed=2)
                bound = 4.0 * math.hypot(cv.std_error, plain.std_error)
                assert abs(cv.value_sq - plain.value_sq) <= bound, (scenario, L)
                assert cv.std_error < plain.std_error * math.sqrt(200_000 / L), (scenario, L)

    def test_matches_the_textbook_fit(self):
        mu, nu = make_dist(84, 80, 7, shift=0.5), make_dist(85, 80, 7, scale=1.6)
        est, _ = monte_carlo_sw_cv(mu, nu, 200, seed=5)
        value, se = cv_reference(mu, nu, 200, 5)
        assert est.value_sq == pytest.approx(value, rel=1e-9)
        assert est.std_error == pytest.approx(se, rel=1e-9)

    def test_dimension_one_is_plain_monte_carlo(self):
        # theta = +-1: every control variate is constant, so all are dropped
        mu, nu = make_dist(86, 50, 1, shift=0.7), make_dist(87, 50, 1, scale=2.0)
        cv, _ = monte_carlo_sw_cv(mu, nu, 100, seed=6)
        plain, _ = monte_carlo_sw_pp(mu, nu, 100, seed=6)
        assert (cv.value_sq, cv.std_error) == (plain.value_sq, plain.std_error)

    def test_identical_inputs_give_exact_zero(self):
        dist = make_dist(88, 40, 6)
        est, w = monte_carlo_sw_cv(dist, dist, 64, seed=1)
        assert (est.value_sq, est.std_error) == (0.0, 0.0)
        assert np.all(w == 0.0)

    def test_centered_pair_drops_the_mean_gap(self, monkeypatch):
        # Centered, the projected mean gap is rounding noise, and so is the
        # gap between its mean and its expectation. The fit uses the two
        # variances only; scaled to unit spread and fitted, the noise column
        # would move the estimate by a fraction of its standard error.
        _, mu = center(make_dist(89, 80, 7, shift=3.0))
        _, nu = center(make_dist(90, 80, 7, scale=1.6))
        est, _ = monte_carlo_sw_cv(mu, nu, 200, seed=5)
        value, se = cv_reference(mu, nu, 200, 5, columns=(1, 2))
        assert est.value_sq == pytest.approx(value, rel=1e-9)
        assert est.std_error == pytest.approx(se, rel=1e-9)
        monkeypatch.setattr(estimators, "_CV_DROP_RTOL", 0.0)
        noisy, _ = monte_carlo_sw_cv(mu, nu, 200, seed=5)
        assert abs(noisy.value_sq - est.value_sq) > 0.01 * est.std_error

    def test_input_validation(self):
        with pytest.raises(DimMismatch):
            monte_carlo_sw_cv(make_dist(1, 10, 2), make_dist(2, 10, 3), 8)
        with pytest.raises(LengthMismatch):
            monte_carlo_sw_cv(make_dist(1, 10, 2), make_dist(2, 11, 2), 8)
        for bad_L in (CV_MIN_PROJECTIONS - 1, 0):
            with pytest.raises(InvalidSample, match="L must be >= 8"):
                monte_carlo_sw_cv(make_dist(1, 10, 2), make_dist(2, 10, 2), bad_L)
        with pytest.raises(InvalidOrder):
            estimate(make_dist(1, 10, 2), make_dist(2, 10, 2), "mc-cv", L=8, p=3.0)

    @pytest.mark.parametrize("workers,n,d,bound", PEAK_MEMORY_CASES)
    def test_peak_memory_is_one_workspace_per_worker(self, workers, n, d, bound):
        # The projected moments are centered a few rows at a time: no (512, n)
        # temporary beyond the workspaces and direction blocks that
        # monte_carlo_sw_pp already holds, one of each per span of two workers.
        peak = peak_memory_of(monte_carlo_sw_cv, n, d, workers)
        assert peak < bound, f"peak {peak / 2 ** 20:.2f} MiB, bound {bound / 2 ** 20:.2f} MiB"


class TestProjectionConstant:
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 100, 10 ** 4, 10 ** 6])
    def test_order_two_is_one(self, d):
        assert abs(gaussian_projection_constant(d, 2.0) - 1.0) <= 1e-12

    def test_dimension_one_order_one(self):
        assert gaussian_projection_constant(1, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 20, 81, 150])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_matches_direct_gamma_evaluation(self, d, p):
        # independent oracle: the same quantity through math.gamma ratios,
        # valid while the Gamma values stay inside double range
        want = math.sqrt(2.0 / d) * (math.gamma(d / 2 + p / 2) / math.gamma(d / 2)) ** (1 / p)
        assert gaussian_projection_constant(d, p) == pytest.approx(want, rel=1e-12)

    def test_large_dimension_limit(self):
        assert abs(gaussian_projection_constant(10 ** 4, 1.0) - 1.0) <= 1e-3

    def test_stable_and_direct_paths_agree_in_overlap(self):
        for d in (90, 120, 200, 260):  # x = d/2 straddles the path switch at 40
            for p in (1.0, 3.0):
                want = math.sqrt(2.0 / d) * math.exp(
                    (math.lgamma(d / 2 + p / 2) - math.lgamma(d / 2)) / p)
                assert gaussian_projection_constant(d, p) == pytest.approx(want, rel=1e-13)

    def test_validation(self):
        with pytest.raises(InvalidSample):
            gaussian_projection_constant(0, 2.0)
        for p in BAD_ORDERS:
            with pytest.raises(InvalidOrder):
                gaussian_projection_constant(4, p)


class TestMomentStats:
    def test_single_sample_at_origin(self):
        stats = moment_stats(EmpiricalDistribution(np.zeros((1, 3))), "all")
        assert (stats.m2_raw, stats.alpha, stats.beta1, stats.beta2) == (0.0, 0.0, 0.0, 0.0)
        assert stats.pair_count_used == 1

    def test_plus_minus_e1(self):
        # ordered pairs of {e1, -e1}: inner products {1, -1, -1, 1}
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        stats = moment_stats(EmpiricalDistribution(data), "all")
        assert stats.m2_raw == 1.0
        assert stats.alpha == 0.0
        assert stats.beta1 == 1.0
        assert stats.beta2 == 1.0
        assert stats.pair_count_used == 4

    def test_gaussian_population_identities(self):
        # E||X||^2 = d and E<X,X'>^2 = d for standard normal rows
        n, d = 4000, 16
        dist = make_dist(60, n, d)
        stats = moment_stats(dist, "all")
        assert stats.m2_raw == pytest.approx(d, rel=0.05)
        assert stats.beta2 == pytest.approx(math.sqrt(d), rel=0.1)
        assert stats.pair_count_used == n * n

    def test_full_enumeration_matches_naive_gram(self):
        dist = make_dist(61, 37, 3)
        stats = moment_stats(dist, "all")
        gram = dist.data @ dist.data.T
        assert stats.beta1 == pytest.approx(float(np.abs(gram).mean()), rel=1e-12)
        assert stats.beta2 == pytest.approx(float(np.sqrt((gram ** 2).mean())), rel=1e-12)

    def test_subsampling_records_budget_and_approximates(self):
        dist = make_dist(62, 500, 8)
        full = moment_stats(dist, "all")
        sub = moment_stats(dist, 200_000, seed=4)
        assert sub.pair_count_used == 200_000
        assert sub.beta1 == pytest.approx(full.beta1, rel=0.05)
        assert sub.beta2 == pytest.approx(full.beta2, rel=0.05)
        # same seed, same answer; different seed, different pairs
        again = moment_stats(dist, 200_000, seed=4)
        assert (again.beta1, again.beta2) == (sub.beta1, sub.beta2)
        other = moment_stats(dist, 200_000, seed=5)
        assert (other.beta1, other.beta2) != (sub.beta1, sub.beta2)

    def test_auto_switches_to_subsampling_for_large_n(self):
        small = moment_stats(make_dist(63, 50, 2))
        assert small.pair_count_used == 2500
        # forcing a tiny budget exercises the sampled path deterministically
        sampled = moment_stats(make_dist(64, 50, 2), 999)
        assert sampled.pair_count_used == 999

    def test_cauchy_schwarz_chain(self):
        g = np.random.default_rng(65)
        for _ in range(25):
            n = int(g.integers(1, 40))
            d = int(g.integers(1, 6))
            dist = EmpiricalDistribution(g.uniform(-3, 3, size=(n, d)))
            stats = moment_stats(dist, "all")
            assert stats.beta1 <= stats.beta2 * (1 + 1e-12)
            assert stats.beta2 <= stats.m2_raw * (1 + 1e-12)

    def test_centering_second_moment_identity(self):
        dist = make_dist(66, 300, 5, shift=2.0)
        mean, centered = center(dist)
        raw = moment_stats(dist, "all")
        cen = moment_stats(centered, "all")
        lhs = raw.m2_raw
        rhs = cen.m2_raw + float(mean @ mean)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert raw.beta2 ** 2 >= cen.beta2 ** 2 - 1e-12 * raw.beta2 ** 2

    def test_bad_budget_rejected(self):
        with pytest.raises(InvalidSample):
            moment_stats(make_dist(1, 5, 2), 0)


class TestPairPaths:
    """The tiled exact Gram pass, the auto limit and the chunked sampled path."""

    @pytest.mark.parametrize("n", [1, _PAIR_TILE - 1, _PAIR_TILE, _PAIR_TILE + 1,
                                   2 * _PAIR_TILE + 1])
    def test_tiled_enumeration_matches_full_gram(self, n):
        dist = make_dist(67, n, 3, shift=0.5)
        stats = moment_stats(dist, "all")
        gram = dist.data @ dist.data.T
        assert stats.pair_count_used == n * n
        assert stats.beta1 == pytest.approx(float(np.abs(gram).mean()), rel=1e-12)
        assert stats.beta2 == pytest.approx(float(np.sqrt((gram ** 2).mean())), rel=1e-12)

    def test_check_pair_budget_normalizes_or_raises(self):
        assert check_pair_budget("auto") == "auto" and check_pair_budget("all") == "all"
        assert check_pair_budget("7") == 7 and check_pair_budget(1) == 1
        for budget in (0, -5):
            with pytest.raises(InvalidSample, match="pair budget must be >= 1"):
                check_pair_budget(budget)
            with pytest.raises(InvalidSample, match="pair budget must be >= 1"):
                moment_stats(make_dist(68, 5, 2), budget)

    def test_auto_limit_boundary(self):
        assert PAIR_FULL_LIMIT >= 10_000
        assert _resolve_pair_count(PAIR_FULL_LIMIT, "auto", 1) is None
        assert _resolve_pair_count(PAIR_FULL_LIMIT + 1, "auto", 1) == PAIR_BUDGET_DEFAULT

    @pytest.mark.parametrize("n,d,exact", [(10_000, 1, True), (12_000, 1, False),
                                           (12_000, 1000, True), (10 ** 6, 1000, False)])
    def test_auto_limit_depends_on_dimension(self, n, d, exact):
        want = None if exact else PAIR_BUDGET_DEFAULT
        assert _resolve_pair_count(n, "auto", d) == want

    def test_auto_limit_never_below_floor_and_grows_with_d(self):
        limits = [exact_pair_limit(d) for d in range(1, 2001)]
        assert min(limits) == limits[0] == PAIR_FULL_LIMIT
        assert all(a <= b for a, b in zip(limits, limits[1:]))

    def test_auto_is_exact_at_paper_scale(self):
        dist = make_dist(68, 10_000, 2)
        auto, full = moment_stats(dist), moment_stats(dist, "all")
        assert auto.pair_count_used == 10 ** 8
        assert (auto.beta1, auto.beta2) == (full.beta1, full.beta2)

    def test_sampled_chunks_replay_their_streams(self):
        # chunk c of the budget draws its left then right indices from the
        # stream (seed, "moment-pairs", c)
        dist = make_dist(69, 300, 4)
        budget, seed = _PAIR_CHUNK + 7, 11
        abs_sum = sq_sum = 0.0
        for chunk, size in enumerate((_PAIR_CHUNK, 7)):
            g = swrng.substream(seed, "moment-pairs", chunk)
            left, right = g.integers(0, 300, size=size), g.integers(0, 300, size=size)
            prods = np.einsum("ij,ij->i", dist.data[left], dist.data[right])
            abs_sum += float(np.abs(prods).sum())
            sq_sum += float((prods * prods).sum())
        stats = moment_stats(dist, budget, seed=seed)
        assert stats.pair_count_used == budget
        assert stats.beta1 == pytest.approx(abs_sum / budget, rel=1e-14)
        assert stats.beta2 == pytest.approx(math.sqrt(sq_sum / budget), rel=1e-14)

    @pytest.mark.parametrize("budget", ["auto", 10_000_000])
    def test_peak_memory_is_bounded(self, budget):
        # The old paths held 16 bytes of indices per sampled pair (160 MB at
        # 10^7 pairs) or an 8192-row Gram slab; neither may come back.
        dist = make_dist(65, 5000, 50)
        tracemalloc.start()
        try:
            moment_stats(dist, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestXiAndBounds:
    def test_zero_stats_give_zero(self):
        stats = MomentStats(4, 0.0, np.zeros(4), 0.0, 0.0, 0.0, 16)
        assert xi_d(stats) == 0.0
        assert theorem2_gap_bound(stats, stats) == 0.0

    def test_hand_value_dimension_one(self):
        stats = MomentStats(1, 1.0, np.zeros(1), 1.0, 1.0, 1.0, 1)
        assert xi_d(stats) == pytest.approx(3.0, rel=1e-15)

    def test_linear_in_alpha(self):
        d = 8
        base = MomentStats(d, 2.0, np.zeros(d), 1.0, 0.5, 1.5, 64)
        bumped = MomentStats(d, 2.0, np.zeros(d), 2.0, 0.5, 1.5, 64)
        assert xi_d(bumped) - xi_d(base) == pytest.approx(1.0 / d, rel=1e-14)

    def test_monotone_in_each_argument(self):
        d = 3
        ref = MomentStats(d, 1.0, np.zeros(d), 0.7, 0.4, 0.9, 9)
        assert xi_d(MomentStats(d, 2.0, np.zeros(d), 0.7, 0.4, 0.9, 9)) >= xi_d(ref)
        assert xi_d(MomentStats(d, 1.0, np.zeros(d), 1.7, 0.4, 0.9, 9)) >= xi_d(ref)
        assert xi_d(MomentStats(d, 1.0, np.zeros(d), 0.7, 0.8, 0.9, 9)) >= xi_d(ref)
        assert xi_d(MomentStats(d, 1.0, np.zeros(d), 0.7, 0.4, 1.9, 9)) >= xi_d(ref)

    def test_gap_bound_square_root_and_symmetry(self):
        # xi = 4 for the first argument, 0 for the second -> bound 2
        a = MomentStats(1, 0.0, np.zeros(1), 4.0, 0.0, 0.0, 1)
        b = MomentStats(1, 0.0, np.zeros(1), 0.0, 0.0, 0.0, 1)
        assert theorem2_gap_bound(a, b) == 2.0
        assert theorem2_gap_bound(a, b) == theorem2_gap_bound(b, a)
        with pytest.raises(DimMismatch):
            theorem2_gap_bound(a, MomentStats(2, 0.0, np.zeros(2), 0.0, 0.0, 0.0, 1))

    def test_beta_order_enforced(self):
        with pytest.raises(InvalidSample):
            MomentStats(1, 1.0, np.zeros(1), 0.0, 2.0, 1.0, 1)

    def test_indep_bound_hand_values(self):
        assert indep_bound(1, 0.0, 0.0) == 0.0
        assert indep_bound(1, 1.0, 1.0) == pytest.approx(3.0, rel=1e-15)
        assert indep_bound(16, 1.0, 1.0) == pytest.approx(0.25 + 0.5 + 16 ** -0.4, rel=1e-15)

    def test_indep_bound_decreasing_in_d(self):
        values = [indep_bound(d, 1.3, 0.8) for d in (1, 2, 4, 16, 256)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_weakdep_bound_hand_values(self):
        assert weakdep_bound(4, WeakDepParams(0.0, 0.0, 0.0)) == 0.0
        params = WeakDepParams(1.0, 1.0, 1.0)
        want = 3 ** 0.5 + 3 ** 0.25 + 3 ** 0.4
        assert weakdep_bound(1, params) == pytest.approx(want, rel=1e-15)
        assert weakdep_bound(16, params) <= weakdep_bound(1, params)

    def test_weakdep_params_invariants(self):
        with pytest.raises(InvalidSample):
            WeakDepParams(rho0=1.0, rho_inf=0.5, rho_max_tail=0.2)  # rho0 > rho_inf
        with pytest.raises(InvalidSample):
            WeakDepParams(rho0=0.5, rho_inf=1.0, rho_max_tail=0.7)  # tail > rho0


class TestSwHat:
    def test_identical_inputs(self):
        dist = make_dist(70, 80, 6)
        assert sw_hat(dist, dist).value_sq == 0.0

    def test_pure_shift_gives_mean_term_only(self):
        dist = make_dist(71, 120, 5)
        c = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        shifted = EmpiricalDistribution(dist.data + c)
        est = sw_hat(dist, shifted)
        assert est.value_sq == pytest.approx(float(c @ c) / 5, rel=1e-10)

    def test_matches_isotropic_closed_form_at_scale(self):
        d, n = 32, 8000
        g = np.random.default_rng(72)
        m1 = g.normal(1.0, 1.0, d)
        m2 = g.normal(1.0, 1.0, d)
        mu = EmpiricalDistribution(g.standard_normal((n, d)) + m1)
        nu = EmpiricalDistribution(math.sqrt(10.0) * g.standard_normal((n, d)) + m2)
        closed = sw2_gaussian_iso_closed(
            IsoGaussian(d, m1, 1.0), IsoGaussian(d, m2, math.sqrt(10.0)))
        assert math.sqrt(sw_hat(mu, nu).value_sq) == pytest.approx(
            math.sqrt(closed), rel=0.05)

    def test_symmetric_nonnegative(self):
        mu, nu = make_dist(73, 60, 4), make_dist(74, 90, 4, shift=1.0)
        a, b = sw_hat(mu, nu), sw_hat(nu, mu)
        assert a.value_sq == b.value_sq >= 0.0

    def test_unequal_sample_counts_allowed(self):
        mu, nu = make_dist(75, 50, 3), make_dist(76, 173, 3)
        assert sw_hat(mu, nu).value_sq >= 0.0

    def test_rotation_invariance(self):
        g = np.random.default_rng(77)
        mu, nu = make_dist(78, 70, 6, shift=0.7), make_dist(79, 70, 6, scale=2.0)
        q, _ = np.linalg.qr(g.standard_normal((6, 6)))
        rot_mu = EmpiricalDistribution(mu.data @ q.T)
        rot_nu = EmpiricalDistribution(nu.data @ q.T)
        assert sw_hat(rot_mu, rot_nu).value_sq == pytest.approx(
            sw_hat(mu, nu).value_sq, rel=1e-10)

    def test_provenance(self):
        est = sw_hat(make_dist(1, 10, 2), make_dist(2, 10, 2))
        assert est.method is Method.DETERMINISTIC
        assert est.num_projections == 0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            sw_hat(make_dist(1, 10, 2), make_dist(2, 10, 3))

    def test_dim_mismatch_fails_before_reading_the_data(self, monkeypatch):
        calls = []
        monkeypatch.setattr(estimators, "_block_sums", lambda *args: calls.append(args))
        with pytest.raises(DimMismatch):
            sw_hat(make_dist(1, 10, 2), make_dist(2, 10, 3))
        assert calls == []

    def test_mean_free_variant_agrees_on_centered_data(self):
        mu, nu = make_dist(80, 200, 5, shift=3.0), make_dist(81, 200, 5, shift=-1.0)
        mean_mu, cmu = center(mu)
        mean_nu, cnu = center(nu)
        gap = mean_mu - mean_nu
        mean_part = float(gap @ gap) / mu.dim
        assert sw_moment_approx_sq(cmu, cnu) == pytest.approx(
            sw_hat(mu, nu).value_sq - mean_part, rel=1e-10)

    def test_value_is_the_closed_form_of_the_two_moment_fits(self):
        for shift in (1.0, 1e6):  # 1e6: far from the origin, where the shifted pass runs
            mu, nu = make_dist(82, 300, 7, shift=shift), make_dist(83, 280, 7, scale=1.7)
            fits = []
            for dist in (mu, nu):
                mean, scaled = _mean_and_scaled_m2(dist)
                fits.append(IsoGaussian(dist.dim, mean, math.sqrt(scaled)))
            assert sw2_gaussian_iso_closed(*fits) == sw_hat(mu, nu).value_sq


def two_pass_reference(x):
    """Mean and normalized centered second moment by two plain float64
    passes: the mean first, then the squared deviations from it."""
    mean = x.mean(axis=0)
    dev = x - mean
    return mean, float(np.sum(dev * dev)) / x.size


def block_rows(d):
    """Rows per block of the moment passes at dimension d: as many as fill
    _CENTER_BLOCK_BYTES, at least 1 and at most 8192."""
    return max(1, min(8192, _CENTER_BLOCK_BYTES // (8 * d)))


class TestCenteredPass:
    """The single blocked pass behind sw_hat against the two-pass
    reference."""

    def check_fit(self, dist):
        mean, scaled = two_pass_reference(dist.data)
        fit_mean, fit_scaled = _mean_and_scaled_m2(dist)
        assert fit_scaled == pytest.approx(scaled, rel=1e-12)
        # A mean's rounding error scales with the data, not with the mean.
        np.testing.assert_allclose(fit_mean, mean, rtol=0.0,
                                   atol=1e-14 * float(np.abs(dist.data).max()))

    def test_far_from_origin(self):
        # Far from the origin the identity m2 - ||mean||^2 cancels to about
        # 1e-4 relative error here; the shifted pass must keep 1e-12.
        g = np.random.default_rng(110)
        n, d = 4 * block_rows(40) + 7, 40
        a = g.standard_normal((n, d))
        b = 2.5 * g.gamma(2.0, 1.0, (n, d))
        mu = EmpiricalDistribution(a - a.mean(axis=0) + 1e6)
        nu = EmpiricalDistribution(b - b.mean(axis=0) + 1e6)
        self.check_fit(mu)
        self.check_fit(nu)
        (mean_mu, scaled_mu), (mean_nu, scaled_nu) = (
            two_pass_reference(mu.data), two_pass_reference(nu.data))
        gap = mean_mu - mean_nu
        want = (math.sqrt(scaled_mu) - math.sqrt(scaled_nu)) ** 2 + float(gap @ gap) / d
        assert sw_hat(mu, nu).value_sq == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [3 * block_rows(40), 3 * block_rows(40) + 1,
                                   block_rows(40) + 1, 5])
    def test_block_boundaries(self, n):
        g = np.random.default_rng(111)
        self.check_fit(EmpiricalDistribution(g.standard_normal((n, 40)) * 1.5 + 5.0))

    def test_single_sample(self):
        row = np.random.default_rng(112).standard_normal(6) + 3.0
        fit_mean, fit_scaled = _mean_and_scaled_m2(EmpiricalDistribution(row.reshape(1, -1)))
        assert fit_scaled == 0.0
        np.testing.assert_array_equal(fit_mean, row)

    def test_constant_dataset(self):
        d = 1000
        n = 3 * block_rows(d) + 1
        row = np.linspace(0.1, 7.3, d)
        dist = EmpiricalDistribution(np.tile(row, (n, 1)))
        assert sw_hat(dist, dist).value_sq == 0.0
        fit_mean, fit_scaled = _mean_and_scaled_m2(dist)
        assert fit_scaled == 0.0
        np.testing.assert_array_equal(fit_mean, row)

    def test_block_of_one_row(self):
        d = _CENTER_BLOCK_BYTES // 8 + 1
        assert block_rows(d) == 1
        g = np.random.default_rng(113)
        self.check_fit(EmpiricalDistribution(g.standard_normal((3, d)) - 2.0))

    @pytest.mark.parametrize("kappa2", [1.0, _KAPPA2_MAX / 2, 2 * _KAPPA2_MAX, 1e12],
                             ids=["1", "bound/2", "2bound", "1e12"])
    @pytest.mark.parametrize("d", [1, 40, 1000])
    @pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (2, 1)], ids=["r-1", "r", "2r+1"])
    def test_both_sides_of_the_kappa2_bound(self, kappa2, d, blocks):
        dist = conditioned_dist(114, blocks[0] * block_rows(d) + blocks[1], d, kappa2)
        mean, scaled = long_double_reference(dist.data)
        fit_mean, fit_scaled = _mean_and_scaled_m2(dist)
        assert fit_scaled == pytest.approx(scaled, rel=1e-12)
        np.testing.assert_allclose(fit_mean, mean, rtol=0.0,
                                   atol=1e-14 * float(np.abs(dist.data).max()))

    def record_passes(self, monkeypatch, dist):
        """The (rows, shifted) of every _block_sums call one fit makes. A
        shifted call must be shifted by the mean of the raw call before it."""
        calls = []
        block_sums = estimators._block_sums

        def recording(data, shift=None):
            if shift is not None:
                np.testing.assert_array_equal(shift, calls[-1][2][0] / len(data))
            calls.append((len(data), shift is not None, block_sums(data, shift)))
            return calls[-1][2]

        monkeypatch.setattr(estimators, "_block_sums", recording)
        _mean_and_scaled_m2(dist)
        return [call[:2] for call in calls]

    @pytest.mark.parametrize("n", [5, block_rows(40), 3 * block_rows(40) + 7])
    @pytest.mark.parametrize("kappa2", [1.0, _KAPPA2_MAX / 2])
    def test_well_conditioned_data_takes_the_raw_pass_only(self, monkeypatch, n, kappa2):
        dist = conditioned_dist(115, n, 40, kappa2)
        assert self.record_passes(monkeypatch, dist) == [(n, False)]

    @staticmethod
    def ill_conditioned(case):
        """Inputs whose raw pass gives kappa^2 above the bound, or m2c <= 0."""
        d, n = 40, 3 * block_rows(40) + 7
        g = np.random.default_rng(116)
        return EmpiricalDistribution({
            "far-offset": g.standard_normal((n, d)) + 1e6,
            "constant": np.tile(np.linspace(-2.0, 3.0, d), (n, 1)),
            "single-row": g.standard_normal((1, d)) + 3.0}[case])

    @pytest.mark.parametrize("case", ["far-offset", "constant", "single-row"])
    def test_ill_conditioned_data_takes_the_shifted_pass_after_the_raw_pass(
            self, monkeypatch, case):
        dist = self.ill_conditioned(case)
        # kappa^2 of the raw pass is above the bound (or m2c is not
        # positive), so the data is read once more, shifted by the raw mean.
        assert self.record_passes(monkeypatch, dist) == [(dist.n, False), (dist.n, True)]

    @pytest.mark.parametrize("case", ["far-offset", "constant", "single-row"])
    def test_ill_conditioned_data_skips_the_raw_pass(self, case):
        # The raw pass is still read (the test above), but its moment is
        # skipped: the fit is the shifted pass's, exact for a constant set or
        # a single row and within 1e-12 of the long-double reference far out.
        dist = self.ill_conditioned(case)
        fit_mean, fit_scaled = _mean_and_scaled_m2(dist)
        if case == "far-offset":
            mean, scaled = long_double_reference(dist.data)
            n, d = dist.data.shape
            col_sum, sq_sum = estimators._block_sums(dist.data)
            raw_mean = col_sum / n
            raw_scaled = (sq_sum / n - float(raw_mean @ raw_mean)) / d
            assert raw_scaled != pytest.approx(scaled, rel=1e-6)
            assert fit_scaled == pytest.approx(scaled, rel=1e-12)
            np.testing.assert_allclose(fit_mean, mean, rtol=0.0,
                                       atol=1e-14 * float(np.abs(dist.data).max()))
        else:
            assert fit_scaled == 0.0
            np.testing.assert_array_equal(fit_mean, dist.data[0])

    def test_late_far_offset_falls_back_after_the_raw_pass(self, monkeypatch):
        # A first block at the origin and the k - 1 far blocks after it give
        # the whole dataset kappa^2 = k, above the bound, so it is read a
        # second time, shifted.
        d, rows = 1000, block_rows(1000)
        n = int(2 * _KAPPA2_MAX) * rows
        data = np.random.default_rng(117).standard_normal((n, d))
        data[rows:] += 1e6
        dist = EmpiricalDistribution(data)
        assert self.record_passes(monkeypatch, dist) == [(n, False), (n, True)]
        self.check_fit(dist)

    def test_drifting_data_keeps_full_accuracy(self):
        # The first block sits at the origin and every later row at 1e6, so
        # the first block's mean is a poor shift for the whole set. The pass
        # shifted by the raw mean must match a long-double reference to 1e-15.
        n, d = 10_010, 1000
        data = np.random.default_rng(121).standard_normal((n, d))
        data[block_rows(d):] += 1e6
        data.flags.writeable = False  # wrapped without a copy
        dist = EmpiricalDistribution(data)
        mean, scaled = long_double_reference(data)
        fit_mean, fit_scaled = _mean_and_scaled_m2(dist)
        assert fit_scaled == pytest.approx(scaled, rel=1e-15)
        np.testing.assert_allclose(fit_mean, mean, rtol=0.0,
                                   atol=1e-14 * float(np.abs(data).max()))

    @pytest.mark.parametrize("shift", [0.0, 1e6], ids=["raw", "shifted"])
    def test_transient_memory_is_one_block(self, shift):
        # Neither pass makes a full-size temporary: the shifted pass holds
        # one block buffer, the raw pass none.
        n, d = 4000, 500
        mu, nu = make_dist(118, n, d, shift=shift), make_dist(119, n, d, shift=shift)
        tracemalloc.start()
        try:
            sw_hat(mu, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * _CENTER_BLOCK_BYTES + 64 * d


def conditioned_dist(seed, n, d, kappa2):
    """n rows in dimension d whose kappa^2 = m2 / m2c is close to kappa2:
    centered standard normal rows moved by an offset of squared norm
    (kappa2 - 1) * m2c."""
    x = np.random.default_rng(seed).standard_normal((n, d))
    x -= x.mean(axis=0)
    m2c = float(np.sum(x * x)) / n
    direction = np.random.default_rng(seed + 1).standard_normal(d)
    direction /= np.linalg.norm(direction)
    return EmpiricalDistribution(x + math.sqrt((kappa2 - 1.0) * m2c) * direction)


def long_double_reference(x):
    """Mean and normalized centered second moment by two np.longdouble passes."""
    dev = x.astype(np.longdouble)
    mean = dev.mean(axis=0)
    dev -= mean
    return mean.astype(np.float64), float(np.einsum("ij,ij->", dev, dev) / x.size)


class TestBlasThreads:
    def test_sw_hat_bits_do_not_depend_on_the_blas_thread_count(self):
        # At n=2000, d=1000 each block holds 65,000 elements, more than the
        # 10^4 above which OpenBLAS splits one dot across its threads. At
        # n=3e5, d=1 the column sums of a 512 KiB block would be one such
        # dot. The scales differ, so the value carries the last bits of both
        # second moments. A fresh interpreter per count: OpenBLAS reads it
        # when numpy loads.
        src = os.path.dirname(os.path.dirname(swkit.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import numpy as np; from swkit import EmpiricalDistribution, sw_hat; "
                "g = np.random.default_rng(120); "
                "mu, nu = (EmpiricalDistribution(s * g.gamma(2.0, 1.0, (2000, 1000))) "
                "for s in (1.0, 1.5)); "
                "far, near = (EmpiricalDistribution(x.data + 1e6) for x in (mu, nu)); "
                "g = np.random.default_rng(121); "
                "a, b = (EmpiricalDistribution(s * g.gamma(2.0, 1.0, (300000, 1))) "
                "for s in (1.0, 1.5)); "
                "print(sw_hat(mu, nu).value_sq.hex(), sw_hat(far, near).value_sq.hex(), "
                "sw_hat(a, b).value_sq.hex())")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", code, src], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.append(result.stdout.strip())
        assert outputs[0] == outputs[1]


class TestTranslationDecompose:
    """sw_hat splits into the centered surrogate plus ||mean gap||^2 / d."""

    def test_equal_means_all_in_centered_part(self):
        mu = make_dist(90, 100, 4)
        shifted = EmpiricalDistribution(mu.data - mu.data.mean(axis=0))
        nu = make_dist(91, 100, 4)
        nu = EmpiricalDistribution(nu.data - nu.data.mean(axis=0))
        mean_mu, cmu = center(shifted)
        mean_nu, cnu = center(nu)
        gap = mean_mu - mean_nu
        assert float(gap @ gap) / 4 <= 1e-28
        assert sw_hat(shifted, nu).value_sq == pytest.approx(
            sw_moment_approx_sq(cmu, cnu), rel=1e-12, abs=1e-28)

    def test_identical_shapes_pure_shift(self):
        mu = make_dist(92, 80, 3)
        c = np.array([2.0, -1.0, 4.0])
        nu = EmpiricalDistribution(mu.data + c)
        _, cmu = center(mu)
        _, cnu = center(nu)
        assert sw_moment_approx_sq(cmu, cnu) <= 1e-25
        assert sw_hat(mu, nu).value_sq == pytest.approx(float(c @ c) / 3, rel=1e-10)

    def test_per_projection_identity_exact(self):
        g = np.random.default_rng(95)
        for _ in range(20):
            n, d = int(g.integers(2, 60)), int(g.integers(1, 8))
            mu = EmpiricalDistribution(g.normal(3.0, 1.0, (n, d)))
            nu = EmpiricalDistribution(g.normal(-1.0, 2.0, (n, d)))
            theta = g.standard_normal(d)
            mean_mu, cmu = center(mu)
            mean_nu, cnu = center(nu)
            lhs = wasserstein_1d_pp(project(mu, theta), project(nu, theta), 2)
            rhs = wasserstein_1d_pp(project(cmu, theta), project(cnu, theta), 2) \
                + float(theta @ (mean_mu - mean_nu)) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestAutocov:
    def test_iid_columns_decay_immediately(self):
        dist = make_dist(100, 3000, 40)
        lags, cov, cov_sq = autocov_decay(dist, 5)
        np.testing.assert_array_equal(lags, np.arange(6))
        assert cov[0] == pytest.approx(1.0, rel=0.1)
        assert np.max(np.abs(cov[1:])) <= 0.05
        assert np.max(np.abs(cov_sq[1:])) <= 0.15

    def test_lag_zero_is_average_variance(self):
        dist = make_dist(101, 200, 6, scale=2.0)
        _, cov, cov_sq = autocov_decay(dist, 0)
        want = float(np.mean(np.var(dist.data, axis=0, ddof=1)))
        assert cov[0] == pytest.approx(want, rel=1e-12)
        squares = dist.data ** 2
        want_sq = float(np.mean(np.var(squares, axis=0, ddof=1)))
        assert cov_sq[0] == pytest.approx(want_sq, rel=1e-12)

    def test_ar1_ratio_decays_geometrically(self):
        from swkit import Ar1Config, gen_ar1

        alpha = 0.6
        dist = gen_ar1(Ar1Config(dim=200, n=4000, alpha=alpha, seed=6))
        _, cov, _ = autocov_decay(dist, 3)
        for k in (1, 2, 3):
            assert cov[k] / cov[0] == pytest.approx(alpha ** k, abs=0.05)

    def test_matches_product_sum_reference(self):
        dist = make_dist(103, 300, 12, shift=3.0, scale=2.0)
        _, cov, cov_sq = autocov_decay(dist, 11)
        n, d = dist.n, dist.dim
        for data, got in ((dist.data, cov), (dist.data ** 2, cov_sq)):
            x = data - data.mean(axis=0)
            want = [float((x[:, : d - k] * x[:, k:]).sum()) / ((n - 1) * (d - k))
                    for k in range(12)]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * abs(want[0]))

    def test_lag_bounds_checked(self):
        dist = make_dist(102, 10, 4)
        with pytest.raises(InvalidLag):
            autocov_decay(dist, 4)
        with pytest.raises(InvalidLag):
            autocov_decay(dist, -1)
        with pytest.raises(InsufficientSamples):
            autocov_decay(EmpiricalDistribution(np.ones((1, 4))), 1)


class TestSwEstimateInvariants:
    def test_projection_count_consistency(self):
        with pytest.raises(InvalidSample):
            SwEstimate(1.0, Method.DETERMINISTIC, num_projections=5)
        with pytest.raises(InvalidSample):
            SwEstimate(1.0, Method.MONTE_CARLO_SPHERE, num_projections=0)
        with pytest.raises(InvalidSample):
            SwEstimate(-0.5, Method.DETERMINISTIC)

    def test_value_is_square_root(self):
        est = SwEstimate(4.0, Method.DETERMINISTIC)
        assert est.value == 2.0

    def test_std_error_validation(self):
        assert SwEstimate(1.0, Method.DETERMINISTIC).std_error == 0.0
        assert SwEstimate(1.0, Method.MONTE_CARLO_SPHERE, 10, std_error=0.25).std_error == 0.25
        for bad in (-1e-300, math.inf, math.nan):
            with pytest.raises(InvalidSample):
                SwEstimate(1.0, Method.MONTE_CARLO_GAUSSIAN, 10, std_error=bad)
        for method in Method:
            if not method.is_mc:
                with pytest.raises(InvalidSample):
                    SwEstimate(1.0, method, std_error=0.1)

    def test_deterministic_methods_report_zero_std_error(self):
        mu, nu = make_dist(28, 40, 4), make_dist(29, 40, 4, shift=1.0)
        for method in Method:
            if not method.is_mc:
                assert estimate(mu, nu, method).std_error == 0.0
        assert sw_hat(mu, nu).std_error == 0.0

    def test_check_args_normalizes_or_raises(self):
        for method in Method:
            if method is Method.MONTE_CARLO_CV:
                L, p = method.check_args(np.int64(CV_MIN_PROJECTIONS), 2)
                assert (L, p) == (8, 2.0) and type(L) is int and type(p) is float
                for bad_L in (CV_MIN_PROJECTIONS - 1, 0, -1):
                    with pytest.raises(InvalidSample, match="L must be >= 8"):
                        method.check_args(bad_L, 2.0)
                for bad_p in (1.0, 3.0, 0.5) + BAD_ORDERS:
                    with pytest.raises(InvalidOrder, match="order-2 control variates"):
                        method.check_args(10, bad_p)
            elif method.is_mc:
                L, p = method.check_args(np.int64(7), 3)
                assert (L, p) == (7, 3.0) and type(L) is int and type(p) is float
                for bad_L in (0, -1):
                    with pytest.raises(InvalidSample, match="L must be >= 1"):
                        method.check_args(bad_L, 2.0)
                with pytest.raises(InvalidOrder):
                    method.check_args(10, 0.5)
            else:
                assert method.check_args(0, 2) == (0, 2.0)
                with pytest.raises(InvalidOrder, match="order-2 surrogate"):
                    method.check_args(0, 3.0)

    def test_deterministic_methods_accept_only_order_two(self):
        mu, nu = make_dist(30, 40, 4), make_dist(31, 40, 4, shift=1.0)
        for method in Method:
            if method is Method.MONTE_CARLO_CV:
                assert estimate(mu, nu, method, L=8, p=2).method is method
                with pytest.raises(InvalidOrder):
                    estimate(mu, nu, method, L=8, p=1.0)
                continue
            if method.is_mc:
                assert estimate(mu, nu, method, L=8, p=1.0).method is method
                continue
            assert estimate(mu, nu, method, p=2).value_sq == estimate(mu, nu, method).value_sq
            for p in (1.0, 1.5, 3.0):
                with pytest.raises(InvalidOrder):
                    estimate(mu, nu, method, p=p)
