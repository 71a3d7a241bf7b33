import io
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from swkit import (
    Ar1Config,
    DatasetRole,
    EmpiricalDistribution,
    FactorConfig,
    FactorFamily,
    NoiseKind,
    ProjectionLaw,
    datagen,
    factor_hyperparams,
    gen_ar1,
    gen_factors,
    load_csv,
    rng,
    sample_directions,
    save_csv,
)
from swkit.bench import write_records_csv
from swkit.errors import DatasetParseError, InvalidSample


def test_negative_seed_is_invalid_sample():
    with pytest.raises(InvalidSample, match="seed must be non-negative"):
        gen_factors(FactorConfig(dim=3, n=4, family=FactorFamily.GAMMA, seed=-1))


class TestSphereSampler:
    def test_unit_norms(self):
        vs = sample_directions(7, seed=1, count=500)
        np.testing.assert_allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-12)

    def test_dimension_one_is_signs(self):
        vs = sample_directions(1, seed=2, count=200)
        assert set(np.unique(vs)) == {-1.0, 1.0}

    def test_second_moment_is_identity_over_d(self):
        d, count = 5, 100_000
        vs = sample_directions(d, seed=3, count=count)
        outer = vs.T @ vs / count
        np.testing.assert_allclose(outer, np.eye(d) / d, atol=0.01)

    def test_deterministic(self):
        np.testing.assert_array_equal(sample_directions(4, 9, 50), sample_directions(4, 9, 50))
        assert not np.array_equal(sample_directions(4, 9, 50), sample_directions(4, 10, 50))


class TestGaussianDirectionSampler:
    def test_moments(self):
        d, count = 8, 100_000
        vs = sample_directions(d, seed=4, count=count, law=ProjectionLaw.GAUSSIAN_SCALED)
        assert abs(vs.mean()) <= 0.005
        sq_norms = np.einsum("ij,ij->i", vs, vs)
        se = sq_norms.std(ddof=1) / math.sqrt(count)
        assert abs(sq_norms.mean() - 1.0) <= 4 * se
        # per-coordinate variance of sqrt(d) * theta is 1
        np.testing.assert_allclose((math.sqrt(d) * vs).var(axis=0), 1.0, atol=0.05)

    def test_deterministic(self):
        law = ProjectionLaw.GAUSSIAN_SCALED
        np.testing.assert_array_equal(sample_directions(3, 5, 20, law),
                                      sample_directions(3, 5, 20, law))


class TestFactorGenerator:
    def test_gaussian_first_moments(self):
        cfg = FactorConfig(dim=12, n=8000, family=FactorFamily.GAUSSIAN,
                           role=DatasetRole.FIRST, seed=21)
        hyper = factor_hyperparams(cfg)
        data = gen_factors(cfg).data
        np.testing.assert_allclose(data.mean(axis=0), hyper.per_column, atol=0.06)
        np.testing.assert_allclose(data.var(axis=0, ddof=1), 1.0, atol=0.08)

    def test_gaussian_second_has_variance_ten(self):
        cfg = FactorConfig(dim=6, n=8000, family=FactorFamily.GAUSSIAN,
                           role=DatasetRole.SECOND, seed=22)
        data = gen_factors(cfg).data
        np.testing.assert_allclose(data.var(axis=0, ddof=1), 10.0, rtol=0.1)

    def test_gamma_first_moments(self):
        cfg = FactorConfig(dim=10, n=8000, family=FactorFamily.GAMMA,
                           role=DatasetRole.FIRST, seed=23)
        hyper = factor_hyperparams(cfg)
        assert np.all(hyper.per_column >= 1.0) and np.all(hyper.per_column < 5.0)
        assert hyper.scale == 2.0
        data = gen_factors(cfg).data
        # Gamma(k, s) has mean k*s and variance k*s^2
        np.testing.assert_allclose(data.mean(axis=0), hyper.per_column * 2.0, rtol=0.06)
        np.testing.assert_allclose(data.var(axis=0, ddof=1), hyper.per_column * 4.0, rtol=0.2)

    def test_gamma_second_shape_range(self):
        cfg = FactorConfig(dim=50, n=2, family=FactorFamily.GAMMA,
                           role=DatasetRole.SECOND, seed=24)
        hyper = factor_hyperparams(cfg)
        assert np.all(hyper.per_column >= 5.0) and np.all(hyper.per_column < 10.0)
        assert hyper.scale == 3.0

    def test_centered_flag_zeroes_column_means(self):
        cfg = FactorConfig(dim=8, n=500, family=FactorFamily.GAMMA, centered=True,
                           role=DatasetRole.SECOND, seed=25)
        data = gen_factors(cfg).data
        scale = np.max(np.abs(data))
        assert np.max(np.abs(data.mean(axis=0))) <= 1e-10 * scale

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (513, 1000)], ids=str)
    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("role", list(DatasetRole))
    @pytest.mark.parametrize("family", list(FactorFamily))
    def test_same_bits_as_the_broadcast_draws(self, family, role, centered, shape):
        n, d = shape
        cfg = FactorConfig(dim=d, n=n, family=family, centered=centered, role=role, seed=d + n)
        hyper = factor_hyperparams(cfg)
        g = rng.data_stream(cfg.seed, "factor-data", 0 if role is DatasetRole.FIRST else 1)
        if family is FactorFamily.GAUSSIAN:
            want = g.normal(loc=hyper.per_column, scale=hyper.scale, size=shape)
        else:
            want = g.gamma(shape=hyper.per_column, scale=hyper.scale, size=shape)
        if centered:
            want -= want.mean(axis=0)
        assert gen_factors(cfg).data.tobytes() == want.tobytes()

    def test_deterministic_and_roles_distinct(self):
        cfg = FactorConfig(dim=5, n=400, family=FactorFamily.GAUSSIAN, seed=26)
        np.testing.assert_array_equal(gen_factors(cfg).data, gen_factors(cfg).data)
        other = FactorConfig(dim=5, n=400, family=FactorFamily.GAUSSIAN,
                             role=DatasetRole.SECOND, seed=26)
        a, b = gen_factors(cfg).data, gen_factors(other).data
        assert not np.array_equal(a, b)
        # distinct streams: standardized first columns are uncorrelated
        za = (a[:, 0] - a[:, 0].mean()) / a[:, 0].std()
        zb = (b[:, 0] - b[:, 0].mean()) / b[:, 0].std()
        assert abs(float(za @ zb) / 400) <= 0.15

    def test_hyperparams_reproducible(self):
        cfg = FactorConfig(dim=9, n=3, family=FactorFamily.GAMMA, seed=27)
        h1, h2 = factor_hyperparams(cfg), factor_hyperparams(cfg)
        np.testing.assert_array_equal(h1.per_column, h2.per_column)

    def test_config_validation(self):
        with pytest.raises(InvalidSample):
            FactorConfig(dim=0, n=5)
        with pytest.raises(InvalidSample):
            FactorConfig(dim=5, n=0)


def alpha_with_burn_in(count):
    """An AR coefficient whose burn-in is ``count`` steps."""
    return 0.0 if count == 0 else 2.0 ** (-53 / (count + 0.5))


class TestAr1Generator:
    def test_alpha_zero_columns_uncorrelated(self):
        dist = gen_ar1(Ar1Config(dim=30, n=4000, alpha=0.0, seed=31))
        x = dist.data - dist.data.mean(axis=0)
        lag1 = float((x[:, :-1] * x[:, 1:]).sum()) / ((4000 - 1) * 29)
        assert abs(lag1) <= 0.02
        np.testing.assert_allclose(dist.data.var(axis=0, ddof=1), 1.0, atol=0.12)

    def test_stationary_variance(self):
        alpha = 0.5
        dist = gen_ar1(Ar1Config(dim=50, n=6000, alpha=alpha, seed=32))
        target = 1.0 / (1.0 - alpha ** 2)  # 4/3
        assert float(dist.data.var(ddof=1)) == pytest.approx(target, rel=0.05)

    @pytest.mark.parametrize("noise", list(NoiseKind))
    def test_first_and_last_kept_steps_have_the_stationary_variance(self, noise):
        # 4 standard errors of the variance stay under 5 % of it at this n,
        # so a start 5 % short of stationary fails.
        alpha, n, dim = 0.95, 24_000, 40
        x = gen_ar1(Ar1Config(dim=dim, n=n, alpha=alpha, noise=noise, seed=17)).data
        innovation_var = 1.0 if noise is NoiseKind.GAUSSIAN else 10.0 / 8.0
        target = innovation_var / (1.0 - alpha ** 2)
        for col in (0, dim - 1):
            sq = (x[:, col] - x[:, col].mean()) ** 2
            se = float(sq.std(ddof=1)) / math.sqrt(n)
            assert 4 * se < 0.05 * target
            assert abs(float(sq.mean()) - target) <= 4 * se

    def test_autocorrelation_geometric(self):
        alpha = 0.7
        dist = gen_ar1(Ar1Config(dim=120, n=5000, alpha=alpha, seed=33))
        x = dist.data - dist.data.mean(axis=0)
        var = float((x * x).mean())
        for k in (1, 2, 3):
            lag = float((x[:, :-k] * x[:, k:]).mean())
            assert lag / var == pytest.approx(alpha ** k, abs=0.05)

    def test_student_t_innovations_heavier_tails(self):
        # alpha=0 keeps raw innovations; t(10) has excess kurtosis 1 and a
        # finite fourth moment, so the estimate is stable across reruns
        kappa = []
        for seed in (34, 35):
            dist = gen_ar1(Ar1Config(dim=60, n=3000, alpha=0.0, noise=NoiseKind.STUDENT_T10,
                                     seed=seed))
            x = dist.data.ravel()
            z = x - x.mean()
            kappa.append(float((z ** 4).mean() / (z ** 2).mean() ** 2))
        assert all(3.3 <= k <= 5.5 for k in kappa)
        assert abs(kappa[0] - kappa[1]) <= 1.0

    def test_deterministic(self):
        cfg = Ar1Config(dim=20, n=700, alpha=0.4, seed=36)
        np.testing.assert_array_equal(gen_ar1(cfg).data, gen_ar1(cfg).data)

    def test_same_law_datasets_have_small_estimated_distance(self):
        from swkit import sw_hat

        a = gen_ar1(Ar1Config(dim=100, n=2000, alpha=0.5, seed=37))
        b = gen_ar1(Ar1Config(dim=100, n=2000, alpha=0.5, seed=38))
        assert math.sqrt(sw_hat(a, b).value_sq) <= 0.1

    def test_config_validation(self):
        with pytest.raises(InvalidSample):
            Ar1Config(dim=5, n=5, alpha=1.0)
        with pytest.raises(InvalidSample):
            Ar1Config(dim=5, n=5, alpha=-0.1)
        with pytest.raises(TypeError, match="burn_in"):  # the alpha sets it
            Ar1Config(dim=5, n=5, alpha=0.5, burn_in=10)

    @pytest.mark.parametrize("alpha,count", [
        (0.0, 0), (2.0 ** -106, 0), (0.2, 22), (0.5, 52), (0.8, 164), (0.95, 716),
        (0.999, 36_718), *((alpha_with_burn_in(k), k) for k in (1, 63, 64, 65)),
    ])
    def test_burn_in_is_the_fewest_steps_to_a_transient_of_2_to_the_minus_53(
            self, alpha, count):
        assert datagen._ar1_burn_in(alpha) == count
        assert alpha ** (count + 1) <= 2.0 ** -53
        assert count == 0 or 2.0 ** -53 < alpha ** count


def lfilter_ar1(cfg):
    """The AR(1) dataset of ``cfg`` as scipy's filter computes it: one
    ``lfilter([1], [1, -alpha])`` from a zero state per 512-row block of
    stream draws. A Gaussian row has its first innovation scaled by
    1 / sqrt(1 - alpha^2) and runs the dim kept steps; a Student row runs
    the burn-in and the dim kept steps."""
    from scipy.signal import lfilter  # the oracle only; swkit never loads it

    gaussian = cfg.noise is NoiseKind.GAUSSIAN
    burn_in = 0 if gaussian else datagen._ar1_burn_in(cfg.alpha)
    steps = burn_in + cfg.dim
    noise_code = 0 if gaussian else 1
    blocks = []
    for block, lo in enumerate(range(0, cfg.n, 512)):
        g = rng.data_stream(cfg.seed, "ar1", noise_code, block)
        shape = (min(512, cfg.n - lo), steps)
        eps = g.standard_normal(shape) if gaussian else g.standard_t(10.0, size=shape)
        if gaussian:
            eps[:, 0] *= 1.0 / math.sqrt((1.0 - cfg.alpha) * (1.0 + cfg.alpha))
        blocks.append(lfilter([1.0], [1.0, -cfg.alpha], eps, axis=1)[:, burn_in:])
    return np.concatenate(blocks)


def config_of_steps(noise, steps, **kwargs):
    """An AR(1) config whose rows run ``steps`` steps: all of them kept for
    Gaussian noise, the last 4 after the burn-in for Student noise."""
    kept = steps if noise is NoiseKind.GAUSSIAN else 4
    return Ar1Config(dim=kept, alpha=alpha_with_burn_in(steps - 4), noise=noise, **kwargs)


CHUNK_EDGES = [0, 1] + [datagen._AR1_CHUNK + k for k in (-1, 0, 1)]


class TestAr1MatchesLfilter:
    @pytest.mark.parametrize("dim", [1] + [datagen._AR1_CHUNK + k for k in (-1, 0, 1)]
                             + [2 * datagen._AR1_CHUNK + 1])
    @pytest.mark.parametrize("n", [1, 511, 512, 513])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
    def test_same_bits_from_the_stationary_start(self, alpha, n, dim):
        # Gaussian rows keep every step: a window that ends before, on and
        # after a chunk boundary, or carries across two of them.
        cfg = Ar1Config(dim=dim, n=n, alpha=alpha, seed=n + dim)
        assert gen_ar1(cfg).data.tobytes() == lfilter_ar1(cfg).tobytes()

    @pytest.mark.parametrize("burn_in", CHUNK_EDGES)
    @pytest.mark.parametrize("n", [1, 511, 512, 513])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
    @pytest.mark.parametrize("noise", [NoiseKind.STUDENT_T10])
    def test_same_bits(self, monkeypatch, noise, alpha, n, burn_in):
        # The recursion at every pairing of alpha and a burn-in that starts
        # the kept window before, on and after a chunk boundary, apart from
        # the count the alpha itself would take.
        monkeypatch.setattr(datagen, "_ar1_burn_in", lambda _: burn_in)
        cfg = Ar1Config(dim=3, n=n, alpha=alpha, noise=noise, seed=n + burn_in)
        assert gen_ar1(cfg).data.tobytes() == lfilter_ar1(cfg).tobytes()

    @pytest.mark.parametrize("burn_in", CHUNK_EDGES)
    @pytest.mark.parametrize("n", [1, 511, 512, 513])
    @pytest.mark.parametrize("noise", list(NoiseKind))
    def test_same_bits_at_the_derived_burn_in(self, noise, n, burn_in):
        # alphas whose burn-in starts a Student row's kept window before, on
        # and after a chunk boundary; a Gaussian row runs none at any of them
        cfg = Ar1Config(dim=3, n=n, alpha=alpha_with_burn_in(burn_in), noise=noise,
                        seed=n + burn_in)
        assert datagen._ar1_burn_in(cfg.alpha) == burn_in
        assert gen_ar1(cfg).data.tobytes() == lfilter_ar1(cfg).tobytes()

    @pytest.mark.parametrize("rows", [1, 100, 512, 1024, 511, 513, 700])
    @pytest.mark.parametrize("noise", list(NoiseKind))
    def test_same_bits_for_any_noise_budget(self, monkeypatch, noise, rows):
        # budgets of one row, a run of one block's rows, one block, two
        # blocks and runs that straddle a block boundary: the batches must
        # not change a bit
        cfg = config_of_steps(noise, 154, n=1100, seed=9)
        monkeypatch.setattr(datagen, "_AR1_NOISE_BYTES", 8 * 154 * rows)
        assert gen_ar1(cfg).data.tobytes() == lfilter_ar1(cfg).tobytes()

    def test_batches_are_runs_of_rows_across_block_boundaries(self, monkeypatch):
        cfg = config_of_steps(NoiseKind.GAUSSIAN, 154, n=1100, seed=9)
        monkeypatch.setattr(datagen, "_AR1_NOISE_BYTES", 8 * 154 * 700)
        out = np.empty((cfg.n, cfg.dim))
        batches = [(lo, len(eps)) for lo, eps in datagen._ar1_noise(cfg, 154, out)]
        assert batches == [(0, 700), (700, 400)]

    @pytest.mark.parametrize("noise", list(NoiseKind))
    def test_transient_memory_is_bounded_by_the_noise_budget(self, monkeypatch, noise):
        # A row that runs only its kept steps (every Gaussian row, a Student
        # row at alpha = 0) is drawn and stepped in its row of out. Besides
        # out that holds a chunk and a panel (75 KB here), the 64 KB
        # finiteness check of the result and, for Student noise, a draw of
        # an eighth of a batch (128 KB), all under a quarter of the 1.04 MB
        # batch that a separate noise buffer would hold. A Student row with
        # a burn-in adds that buffer: at most the batch, a chunk no larger
        # and a draw no larger. A whole 512-row block of the 2000 steps
        # alone is 8.2 MB here. At a 4 MiB budget a Gaussian call makes 8
        # batches of up to 262 rows and holds one (64, rows + 8) chunk and
        # one (rows, 64 + 8) panel for all of them, plus the 64 KiB
        # finiteness block and 32 KiB of slack: 378 KiB. A new chunk and
        # panel per batch, made while the last batch's are still bound,
        # reads 586 KiB.
        budget = 1 << 20
        if noise is NoiseKind.GAUSSIAN:
            rows = (4 << 20) // (8 * 2000)
            cases = [(budget, config_of_steps(noise, 2000, n=2000, seed=3), budget // 4),
                     (4 << 20, config_of_steps(noise, 2000, n=2000, seed=3),
                      8 * (64 * (rows + 8) + rows * (64 + 8)) + (64 << 10) + (32 << 10))]
        else:
            cases = [(budget, config_of_steps(noise, 2000, n=2000, seed=3), 3 * budget),
                     (budget, Ar1Config(dim=2000, n=2000, alpha=0.0, noise=noise, seed=3),
                      budget // 4)]
        for noise_bytes, cfg, bound in cases:
            monkeypatch.setattr(datagen, "_AR1_NOISE_BYTES", noise_bytes)
            gen_ar1(Ar1Config(dim=1, n=1, alpha=cfg.alpha, noise=noise))  # imports numpy.random
            tracemalloc.start()
            try:
                gen_ar1(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * cfg.n * cfg.dim + bound, (cfg, peak)


class TestAr1DrawsOnlyWhatItNeeds:
    @pytest.mark.parametrize("shape", [(1, 1), (600, 3)], ids=str)
    @pytest.mark.parametrize("noise,alpha", [
        (NoiseKind.GAUSSIAN, 0.2), (NoiseKind.GAUSSIAN, 0.8), (NoiseKind.GAUSSIAN, 0.999995),
        (NoiseKind.STUDENT_T10, 0.2), (NoiseKind.STUDENT_T10, 0.8),
    ])
    def test_steps_per_row(self, monkeypatch, noise, alpha, shape):
        # A Gaussian row draws its dim kept steps alone at any alpha; near
        # alpha = 1 a burn-in would be about 36.7 / (1 - alpha) steps more
        # (a minute per row at 0.999995). A Student row still runs its burn-in.
        n, dim = shape
        asked, drawn = [], []
        noise_batches = datagen._ar1_noise

        def counting_noise(cfg, steps, out):
            asked.append(steps)
            for lo, eps in noise_batches(cfg, steps, out):
                drawn.append(eps.size)
                yield lo, eps

        monkeypatch.setattr(datagen, "_ar1_noise", counting_noise)
        gen_ar1(Ar1Config(dim=dim, n=n, alpha=alpha, noise=noise, seed=5))
        steps = dim if noise is NoiseKind.GAUSSIAN else datagen._ar1_burn_in(alpha) + dim
        assert asked == [steps]
        assert sum(drawn) == n * steps


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        dist = gen_factors(FactorConfig(dim=4, n=25, family=FactorFamily.GAMMA, seed=40))
        path = tmp_path / "data.csv"
        save_csv(dist, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.data, dist.data)

    def test_header_round_trip(self, tmp_path):
        dist = gen_factors(FactorConfig(dim=3, n=10, seed=41))
        path = tmp_path / "data.csv"
        save_csv(dist, path, header=True)
        first = path.read_text().splitlines()[0]
        assert first == "x0,x1,x2"
        back = load_csv(path)
        np.testing.assert_array_equal(back.data, dist.data)

    def test_identical_bytes_for_same_seed(self, tmp_path):
        cfg = FactorConfig(dim=4, n=10, family=FactorFamily.GAMMA, seed=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(gen_factors(cfg), p1)
        save_csv(gen_factors(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_leftover_temp_files(self, tmp_path):
        save_csv(gen_factors(FactorConfig(dim=2, n=5, seed=1)), tmp_path / "out.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_files_get_the_mode_open_gives(self, tmp_path, umask, mode):
        dist = gen_factors(FactorConfig(dim=2, n=5, seed=1))
        old = os.umask(umask)
        try:
            save_csv(dist, tmp_path / "data.csv")
            write_records_csv([], tmp_path / "records.csv", {"seed": 1})
        finally:
            os.umask(old)
        for name in ("data.csv", "records.csv"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# metadata line\n1.0,2.0\n3.0,4.0\n")
        back = load_csv(path)
        np.testing.assert_array_equal(back.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DatasetParseError) as err:
            load_csv(path)
        assert err.value.line == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DatasetParseError) as err:
            load_csv(path)
        assert err.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetParseError):
            load_csv(path)


class TestCsvWriter:
    """save_csv writes the text of np.savetxt(fmt="%.17g", delimiter=","),
    one block of rows at a time."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 2.0 ** 53 + 1]
    ROWS = datagen._CSV_BLOCK // 8  # rows of a block at d = 8

    @pytest.mark.parametrize("header", [False, True], ids=["bare", "header"])
    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 9), (3000, 1), (ROWS - 1, 8), (ROWS, 8), (ROWS + 1, 8),
        (3, 2049), (2, 5000),
    ], ids=str)
    def test_same_text_as_savetxt(self, tmp_path, shape, header):
        gen = np.random.default_rng(sum(shape))
        x = gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 300, shape)
        k = min(x.size, len(self.SPECIAL))
        x.flat[:k] = self.SPECIAL[:k]
        x.flat[-k:] = self.SPECIAL[::-1][:k]
        want = io.StringIO()
        if header:
            want.write(",".join(f"x{j}" for j in range(shape[1])) + "\n")
        np.savetxt(want, x, fmt="%.17g", delimiter=",")
        path = tmp_path / "data.csv"
        save_csv(EmpiricalDistribution(x), path, header=header)
        assert path.read_bytes() == want.getvalue().encode()
        assert load_csv(path).data.tobytes() == x.tobytes()

    def test_transient_memory_is_bounded_by_one_block(self, tmp_path):
        # The data is allocated before tracing starts, so the peak is what
        # the writer holds above it: one block's floats and text (about
        # 100 KB) and the file's buffers. The whole text is about 18 MB, and
        # the whole array as a list of Python floats 32 MB.
        dist = gen_factors(FactorConfig(dim=50, n=20_000, seed=2))
        save_csv(gen_factors(FactorConfig(dim=2, n=3, seed=2)), tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            save_csv(dist, tmp_path / "data.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestCsvReader:
    """What load_csv accepts, and the file line it reports for each fault."""

    @staticmethod
    def load(tmp_path, content: bytes):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        return load_csv(path).data

    @staticmethod
    def fault(tmp_path, content: bytes) -> DatasetParseError:
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        with pytest.raises(DatasetParseError) as err:
            load_csv(path)
        assert err.value.path == str(path)
        return err.value

    def test_whitespace_only_and_trailing_blank_lines_skipped(self, tmp_path):
        back = self.load(tmp_path, b"1.0,2.0\n   \n\t\n3.0,4.0\n\n\n")
        np.testing.assert_array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_crlf_line_endings(self, tmp_path):
        back = self.load(tmp_path, b"x0,x1\r\n1.5,2.0\r\n3.0,4.5\r\n")
        np.testing.assert_array_equal(back, [[1.5, 2.0], [3.0, 4.5]])

    def test_header_after_comment_lines(self, tmp_path):
        back = self.load(tmp_path, b"# source: test\n\n# units: none\nx0,x1\n1.0,2.0\n")
        np.testing.assert_array_equal(back, [[1.0, 2.0]])

    def test_byte_order_mark_skipped(self, tmp_path):
        back = self.load(tmp_path, b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("content,want", [(b"1.0\n2.0\n3.0\n", [[1.0], [2.0], [3.0]]),
                                              (b"1.0,2.0,3.0\n", [[1.0, 2.0, 3.0]]),
                                              (b"7.5", [[7.5]])])
    def test_one_column_and_one_row(self, tmp_path, content, want):
        back = self.load(tmp_path, content)
        assert back.shape == np.shape(want)
        np.testing.assert_array_equal(back, want)

    @pytest.mark.parametrize("content,line,reason", [
        (b"# comment\n\n1.0,2.0\n\n# another\n3.0,oops\n", 6, "non-numeric field"),
        (b"# comment\nx0,x1\n\n1.0,2.0\n  \n3.0\n", 6, "expected 2 columns, found 1"),
        # Python's float() took 1_0 as 10; numpy's parser does not
        (b"1.0,2.0\n\n# comment\n3.0,1_0\n", 4, "non-numeric field"),
    ])
    def test_fault_reports_file_line_not_row_index(self, tmp_path, content, line, reason):
        err = self.fault(tmp_path, content)
        assert err.line == line
        assert reason in err.reason

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        err = self.fault(tmp_path, b"# comment\nx0,x1\n\n")
        assert (err.line, err.reason) == (0, "no data rows")

    def test_non_finite_value_reports_its_line(self, tmp_path):
        err = self.fault(tmp_path, b"# comment\n1.0,2.0\nnan,3.0\n4.0,inf\n")
        assert (err.line, err.reason) == (3, "non-finite value")

    def test_non_finite_value_past_the_first_block_reports_its_line(self, tmp_path):
        # 70,000 values: the fault sits in the finiteness check's second block
        err = self.fault(tmp_path, b"1.0\n" * 69_999 + b"-inf\n")
        assert (err.line, err.reason) == (70_000, "non-finite value")

    @pytest.mark.parametrize("content,line", [(b"1.0,2.0\n\xff\xfe,3\n", 2),
                                              (b"1.0,2.0\n# caf\xe9\n3.0,4.0\n", 2),
                                              (b"1.0,2.0\n" * 4000 + b"\xff\n", 4001)])
    def test_non_utf8_bytes_report_their_line(self, tmp_path, content, line):
        err = self.fault(tmp_path, content)
        assert (err.line, err.reason) == (line, "not UTF-8 text")

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        err = self.fault(tmp_path, b"1.0,2.0\n3.0,x\n" + b"1.0,2.0\n" * 4000 + b"\xff\n")
        assert err.line == 2
