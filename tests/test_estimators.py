import math
import tracemalloc

import numpy as np
import pytest

from swkit import (
    EmpiricalDistribution,
    FactorConfig,
    FactorFamily,
    DatasetRole,
    Gaussian1d,
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
    gen_factors,
    indep_bound,
    moment_stats,
    monte_carlo_sw_pp,
    project,
    sample_directions,
    sw2_gaussian_iso_closed,
    sw_hat,
    sw_moment_approx_sq,
    theorem2_gap_bound,
    w2_gaussian_1d,
    wasserstein_1d_pp,
    weakdep_bound,
    xi_d,
)
from swkit import rng as swrng
from swkit.estimators import (
    _CENTER_BLOCK_BYTES,
    _PAIR_CHUNK,
    _PAIR_TILE,
    PAIR_BUDGET_DEFAULT,
    PAIR_FULL_LIMIT,
    _mean_and_scaled_m2,
    _resolve_pair_count,
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


def make_dist(seed, n, d, shift=0.0, scale=1.0):
    g = np.random.default_rng(seed)
    return EmpiricalDistribution(g.standard_normal((n, d)) * scale + shift)


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

    def test_worker_count_never_changes_bits(self):
        mu = make_dist(20, 60, 5)
        nu = make_dist(21, 60, 5, shift=1.0)
        base, per_base = monte_carlo_sw_pp(mu, nu, 2500, seed=8, workers=1)
        for workers in (2, 4):
            est, per = monte_carlo_sw_pp(mu, nu, 2500, seed=8, workers=workers)
            assert est.value_sq == base.value_sq
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

    def test_input_validation(self):
        with pytest.raises(DimMismatch):
            monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 10, 3), 4)
        with pytest.raises(LengthMismatch):
            monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 11, 2), 4)
        with pytest.raises(InvalidOrder):
            monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 10, 2), 4, p=0.3)
        with pytest.raises(InvalidSample):
            monte_carlo_sw_pp(make_dist(1, 10, 2), make_dist(2, 10, 2), 0)


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
        with pytest.raises(InvalidOrder):
            gaussian_projection_constant(4, 0.5)


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

    def test_auto_limit_boundary(self):
        assert PAIR_FULL_LIMIT >= 10_000
        assert _resolve_pair_count(PAIR_FULL_LIMIT, "auto") is None
        assert _resolve_pair_count(PAIR_FULL_LIMIT + 1, "auto") == PAIR_BUDGET_DEFAULT

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

    def test_mean_free_variant_agrees_on_centered_data(self):
        mu, nu = make_dist(80, 200, 5, shift=3.0), make_dist(81, 200, 5, shift=-1.0)
        mean_mu, cmu = center(mu)
        mean_nu, cnu = center(nu)
        gap = mean_mu - mean_nu
        mean_part = float(gap @ gap) / mu.dim
        assert sw_moment_approx_sq(cmu, cnu) == pytest.approx(
            sw_hat(mu, nu).value_sq - mean_part, rel=1e-10)

    def test_closed_form_gauss_route_equals_deterministic(self):
        mu, nu = make_dist(82, 300, 7, shift=1.0), make_dist(83, 280, 7, scale=1.7)
        fits = []
        for dist in (mu, nu):
            mean, scaled = _mean_and_scaled_m2(dist)
            fits.append(IsoGaussian(dist.dim, mean, math.sqrt(scaled)))
        via_fit = sw2_gaussian_iso_closed(*fits)
        assert via_fit == pytest.approx(sw_hat(mu, nu).value_sq, rel=1e-12)


def two_pass_reference(x):
    """Mean and normalized centered second moment by two plain float64
    passes: the mean first, then the squared deviations from it."""
    mean = x.mean(axis=0)
    dev = x - mean
    return mean, float(np.sum(dev * dev)) / x.size


def block_rows(d):
    """Rows per block of the centered pass at dimension d."""
    return max(1, _CENTER_BLOCK_BYTES // (8 * d))


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
        # 1e-4 relative error here; the pilot shift must keep 1e-12.
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
        dist = gen_ar1(Ar1Config(dim=200, n=4000, alpha=alpha, burn_in=500, seed=6))
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

    def test_deterministic_methods_accept_only_order_two(self):
        mu, nu = make_dist(30, 40, 4), make_dist(31, 40, 4, shift=1.0)
        for method in Method:
            if method.is_mc:
                assert estimate(mu, nu, method, L=8, p=1.0).method is method
                continue
            assert estimate(mu, nu, method, p=2).value_sq == estimate(mu, nu, method).value_sq
            for p in (1.0, 1.5, 3.0):
                with pytest.raises(InvalidOrder):
                    estimate(mu, nu, method, p=p)
