import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgauss import experiments, psi2_estimation
from subgauss.errors import DimensionTooSmall, DomainError, ValidationError
from subgauss.experiments import (
    CorollaryConfig,
    CounterexampleConfig,
    ReportRow,
    TheoremConfig,
    WishartConfig,
    make_conditioned_covariance,
    partition_rows,
    run_corollary_experiment,
    run_counterexample,
    run_theorem_experiment,
    run_wishart_conditioning,
    sigma_sq_bound,
)
from subgauss.gaussian_core import (
    CovarianceSpec,
    condition_number,
    sample_gaussian,
    subseed,
    substream,
)
from subgauss.psi2_estimation import direction_set, psi2_scalar, scan_directions


class TestSigmaSqBound:
    def test_kappa_one(self):
        assert sigma_sq_bound(1.0) == 4.0

    def test_forced_arithmetic(self):
        assert sigma_sq_bound(1.0 + math.pi / 2.0) == pytest.approx(5.0)

    def test_kappa_ten(self):
        value = sigma_sq_bound(10.0)
        assert value == pytest.approx(4.0 + 18.0 / math.pi)
        assert value <= 40.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sigma_sq_bound(0.5)

    @pytest.mark.parametrize("kappa", (math.nan, math.inf))
    def test_non_finite_rejected(self, kappa):
        with pytest.raises(DomainError):
            sigma_sq_bound(kappa)

    @given(kappa=st.floats(min_value=1.0, max_value=1e4))
    @settings(max_examples=50, deadline=None)
    def test_dominated_by_four_kappa(self, kappa):
        assert sigma_sq_bound(kappa) <= 4.0 * kappa

    def test_nondecreasing_on_log_grid(self):
        grid = np.geomspace(1.0, 1e4, 60)
        values = [sigma_sq_bound(k) for k in grid]
        assert np.all(np.diff(values) >= 0)


class TestMakeConditionedCovariance:
    def test_kappa_one_is_identity(self):
        cov = make_conditioned_covariance(5, 1.0, seed=0)
        np.testing.assert_array_equal(cov.matrix, np.eye(5))

    def test_condition_number_hits_target(self):
        cov = make_conditioned_covariance(4, 9.0, seed=1)
        assert abs(condition_number(cov.matrix) - 9.0) <= 1e-9 * 9.0

    def test_orthogonal_factor(self):
        cov = make_conditioned_covariance(16, 7.0, seed=2)
        q = cov.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(16))) <= 1e-10

    def test_eigenvalues_log_spaced(self):
        cov = make_conditioned_covariance(6, 32.0, seed=3)
        ratios = cov.eigenvalues[:-1] / cov.eigenvalues[1:]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(DomainError):
            make_conditioned_covariance(4, 0.9, seed=0)

    @pytest.mark.parametrize("kappa", (math.nan, math.inf))
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(DomainError):
            make_conditioned_covariance(4, kappa, seed=0)


class TestPartitionRows:
    def test_five_rows(self):
        w1, w2 = partition_rows(np.arange(25.0).reshape(5, 5))
        assert w1.shape == (2, 5)
        assert w2.shape == (3, 5)

    def test_two_rows(self):
        w1, w2 = partition_rows(np.eye(2))
        assert w1.shape == (1, 2)
        assert w2.shape == (1, 2)

    def test_stack_reconstructs(self):
        w = substream(0, "part").standard_normal((7, 7))
        w1, w2 = partition_rows(w)
        np.testing.assert_array_equal(np.vstack([w1, w2]), w)

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            partition_rows(np.ones((1, 1)))

    @given(n=st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_shapes(self, n):
        w1, w2 = partition_rows(np.zeros((n, n)))
        assert w1.shape[0] == n // 2
        assert w1.shape[0] + w2.shape[0] == n


class TestReportRow:
    def test_pass_iff_value_at_most_bound(self):
        assert ReportRow("x", None, None, "e", 1.0, bound=2.0).passed
        assert not ReportRow("x", None, None, "e", 3.0, bound=2.0).passed

    def test_unbounded_rows_informational(self):
        assert ReportRow("x", None, None, "e", 99.0).passed

    def test_pass_recomputable_from_stored_fields(self):
        row = ReportRow("x", 4, 2.0, "e", 1.5, bound=1.0)
        d = row.as_dict()
        assert d["pass"] == (d["value"] <= d["bound"])


@pytest.fixture(scope="module")
def small_theorem_report():
    cfg = TheoremConfig(dims=(8, 16), kappas=(1.0, 4.0), maps=("sgn",),
                        samples=20_000, directions=8, seed=5)
    return cfg, run_theorem_experiment(cfg)


class TestTheoremExperiment:
    def test_mgf_rows_within_bound(self, small_theorem_report):
        _, report = small_theorem_report
        rows = report.select("mgf_fit")
        assert len(rows) == 4
        for row in rows:
            assert row.value <= 2.0 * math.sqrt(row.kappa)

    def test_mgf_bound_is_the_variance_proxy(self, small_theorem_report):
        _, report = small_theorem_report
        for row in report.select("mgf_fit"):
            assert row.bound == math.sqrt(sigma_sq_bound(row.kappa))

    def test_identity_cells_match_rademacher_proxy(self, small_theorem_report):
        # kappa = 1 with sgn gives i.i.d. +-1 coordinates: true sigma is 1 < 2
        _, report = small_theorem_report
        for row in report.select("mgf_fit"):
            if row.kappa == 1.0:
                assert row.value <= 2.0

    def test_flatness_rows_present(self, small_theorem_report):
        _, report = small_theorem_report
        flat = report.select("dim_flatness")
        assert {row.kappa for row in flat} == {1.0, 4.0}
        for row in flat:
            assert row.bound == 1.3

    def test_fitted_sigma_varies_under_25_percent_across_dims(self, small_theorem_report):
        _, report = small_theorem_report
        for row in report.select("sigma_flatness"):
            assert row.value <= 1.25

    def test_metadata_echoes_the_config(self, small_theorem_report):
        _, report = small_theorem_report
        assert report.metadata["config"] == {
            "dims": [8, 16], "kappas": [1.0, 4.0], "maps": ["sgn"],
            "samples": 20_000, "directions": 8}

    def test_determinism(self, small_theorem_report):
        cfg, report = small_theorem_report
        again = run_theorem_experiment(cfg)
        assert [r.as_dict() for r in again.rows] == [r.as_dict() for r in report.rows]

    def test_constant_map_gives_zero_sigma(self):
        cfg = TheoremConfig(dims=(8,), kappas=(4.0,), maps=("one",),
                            samples=20_000, directions=8, seed=6)
        report = run_theorem_experiment(cfg)
        (sigma_row,) = report.select("mgf_fit")
        assert sigma_row.value == 0.0
        (orlicz_row,) = report.select("orlicz")
        assert orlicz_row.value == 0.0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TheoremConfig(dims=(8,), kappas=(0.5,))
        with pytest.raises(ValidationError):
            TheoremConfig(dims=(1,), kappas=(1.0,))
        with pytest.raises(ValidationError):
            TheoremConfig(dims=(8,), kappas=(1.0,), samples=100)

    @pytest.mark.parametrize("dims,kappas,key", [((), (1.0,), "dims"), ((8,), (), "kappas")])
    def test_empty_grid_rejected(self, dims, kappas, key):
        with pytest.raises(ValidationError, match=f"{key} must not be empty"):
            TheoremConfig(dims=dims, kappas=kappas)

    def test_peak_memory_is_about_the_scanned_half(self, monkeypatch):
        # with small scan blocks the scanned half dominates: it is the cell's
        # one draw, centered by the exact mean as it is drawn, and nothing is copied
        monkeypatch.setattr(psi2_estimation, "SCAN_BLOCK_BYTES", 2**20)
        rows, n = 10**5, 64
        cfg = TheoremConfig(dims=(n,), kappas=(1.0,), maps=("clamp",),
                            samples=rows, directions=0, seed=1)
        tracemalloc.start()  # it sees numpy's buffers
        try:
            run_theorem_experiment(cfg, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * rows * n * 8

    @staticmethod
    def record_draws(monkeypatch):
        """The (count, seed, stream_id, image) of every draw the theorem study makes."""
        calls = []

        def recording(cov, count, seed, stream_id, **kwargs):
            image = sample_gaussian(cov, count, seed, stream_id, **kwargs)
            calls.append((count, seed, stream_id, image))
            return image

        monkeypatch.setattr(experiments, "sample_gaussian", recording)
        return calls

    def test_each_cell_makes_one_draw_from_its_own_stream(self, monkeypatch):
        # the exact mean needs no sample: one draw a cell, of the scanned rows,
        # from stream (eff_seed, cell) and no other
        calls = self.record_draws(monkeypatch)
        samples = 20_001
        maps = ("sgn", "clamp")
        cfg = TheoremConfig(dims=(8, 16), kappas=(1.0, 4.0), maps=maps,
                            samples=samples, directions=0, seed=2)
        run_theorem_experiment(cfg, threads=1)
        assert [count for count, *_ in calls] == [samples - samples // 2] * 8
        expected = [(subseed(cfg.seed, "theorem", name), cell)
                    for name in maps for cell in range(4)]
        assert [(seed, stream_id) for _, seed, stream_id, _ in calls] == expected

    def test_sgn_image_is_centered_exactly(self, monkeypatch):
        # sgn is odd and X_i symmetric, so its exact mean is 0 and the scanned
        # image holds the signs themselves, at kappa 1 and above
        calls = self.record_draws(monkeypatch)
        cfg = TheoremConfig(dims=(8,), kappas=(1.0, 16.0), maps=("sgn",),
                            samples=10_000, directions=0, seed=3)
        run_theorem_experiment(cfg, threads=1)
        assert len(calls) == 2
        for *_, image in calls:
            assert set(np.unique(image)) == {-1.0, 1.0}

    @pytest.mark.parametrize("name", ("sgn", "clamp", "cos", "one",
                                      "threshold:-1", "threshold:0.5"))
    def test_centered_image_has_mean_zero(self, monkeypatch, name):
        # the exact mean against the sampler: each column of the centered
        # 5e4-row image within 5 standard errors of 0; cos and a threshold
        # off 0 are not odd, so their means are not 0
        calls = self.record_draws(monkeypatch)
        rows = 100_000
        cfg = TheoremConfig(dims=(16,), kappas=(16.0,), maps=(name,),
                            samples=rows, directions=0, seed=4)
        run_theorem_experiment(cfg, threads=1)
        ((count, *_, image),) = calls
        assert count == rows // 2
        bound = 5.0 * image.std(axis=0) / math.sqrt(count)
        assert np.all(np.abs(image.mean(axis=0)) <= bound)


class TestConditionalHoeffding:
    def test_identity_covariance_mgf_within_envelope(self):
        # With Sigma = I the residual part vanishes and coordinates of sgn(X)
        # are independent, so every direction must fit sigma <= 2 (the
        # envelope exp(2 lambda^2)).
        n, count = 32, 20_000
        x = sample_gaussian(CovarianceSpec.identity(n), count, seed=3, stream_id=0)
        y = np.sign(x)
        y = y - y.mean(axis=0)
        dirs = direction_set(n, 50, substream(4, "hoeffding"))[n + 1 :]  # 50 random
        for d, v in enumerate(dirs):
            sigma = psi2_scalar(y @ v, seed=d, lambda_grid=[0.25, 0.5, 1.0]).mgf_sigma_max
            assert sigma <= 2.0


@pytest.fixture(scope="module")
def small_corollary_report():
    cfg = CorollaryConfig(dims=(8, 16), w_draws=20, samples=20_000,
                          directions=8, seed=2)
    return cfg, run_corollary_experiment(cfg)


class TestCorollaryExperiment:
    def test_block_mgf_bound_every_draw(self, small_corollary_report):
        _, report = small_corollary_report
        rows = report.select("mgf_fit")
        assert len(rows) == 2 * 20 * 2
        for row in rows:
            assert row.value <= 2.0 * math.sqrt(row.kappa)

    def test_mgf_bound_is_the_variance_proxy(self, small_corollary_report):
        _, report = small_corollary_report
        rows = report.select("mgf_fit")
        assert len(rows) == 2 * 20 * 2
        for row in rows:
            assert row.bound == math.sqrt(sigma_sq_bound(row.kappa))

    def test_trivial_fallback_bound(self, small_corollary_report):
        # deterministic bound: |<v, Y1>| <= sqrt(m) gives norm <= sqrt(m/ln 2)
        _, report = small_corollary_report
        for row in report.select("orlicz:"):
            if row.estimator.endswith(("block1", "block2")):
                assert row.passed

    def test_triangle_gap_nonpositive(self, small_corollary_report):
        _, report = small_corollary_report
        gaps = report.select("triangle_gap")
        assert len(gaps) == 2 * 20
        for row in gaps:
            assert row.value <= 0.0

    def test_symmetry_of_coordinates(self, small_corollary_report):
        # under symmetry about the origin, ~0.27% of coordinate means sit
        # beyond 3 standard errors; the exceedance fraction stays small
        _, report = small_corollary_report
        rows = report.select("symmetry_exceed")
        assert len(rows) == 2 * 20
        for row in rows:
            assert row.value <= 0.05

    def test_flatness_row(self, small_corollary_report):
        _, report = small_corollary_report
        (row,) = report.select("combined_flatness")
        assert row.bound == 1.3

    def test_metadata_echoes_the_config(self, small_corollary_report):
        _, report = small_corollary_report
        assert report.metadata["config"] == {
            "dims": [8, 16], "w_draws": 20, "samples": 20_000, "directions": 8}

    def test_determinism(self, small_corollary_report):
        cfg, report = small_corollary_report
        again = run_corollary_experiment(cfg)
        assert [r.as_dict() for r in again.rows] == [r.as_dict() for r in report.rows]

    def test_one_scan_per_w_draw(self, monkeypatch):
        # both blocks and the full vector are parts of one scan of the sample
        calls = []

        def scan(y, *args, **kwargs):
            calls.append((args[2], kwargs["parts"]))
            return scan_directions(y, *args, **kwargs)

        monkeypatch.setattr(experiments, "scan_directions", scan)
        run_corollary_experiment(CorollaryConfig(dims=(9,), w_draws=20, samples=10_000,
                                                 directions=2, seed=1))
        assert calls == [(w, (range(4), range(4, 9), range(9))) for w in range(20)]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            CorollaryConfig(dims=(8,), w_draws=5)
        with pytest.raises(ValidationError, match="dims must not be empty"):
            CorollaryConfig(dims=())

    def test_negative_directions_rejected(self):
        with pytest.raises(ValidationError, match="directions"):
            CorollaryConfig(dims=(8,), directions=-1)
        with pytest.raises(ValidationError, match="directions"):
            TheoremConfig(dims=(8,), kappas=(1.0,), directions=-3)
        TheoremConfig(dims=(8,), kappas=(1.0,), directions=0)


class TestWishartConditioning:
    def test_m_one_always_unit_kappa(self):
        report = run_wishart_conditioning(WishartConfig((2,), trials=100, seed=0))
        (median_row,) = [r for r in report.rows if r.estimator == "kappa_median"]
        assert median_row.value == pytest.approx(1.0)

    def test_exceedance_rate_row(self):
        report = run_wishart_conditioning(WishartConfig((64,), trials=200, seed=1))
        (rate_row,) = [r for r in report.rows if r.estimator == "kappa_exceed_rate"]
        assert rate_row.bound == 0.01
        assert 0.0 <= rate_row.value <= 1.0

    def test_median_window_row_only_in_asymptotic_regime(self):
        report = run_wishart_conditioning(WishartConfig((16, 64), trials=100, seed=2))
        devs = [r for r in report.rows if r.estimator == "kappa_median_dev"]
        assert [r.n for r in devs] == [64]

    def test_trials_validation(self):
        with pytest.raises(ValidationError):
            WishartConfig((64,), trials=50, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="trials"):
            WishartConfig(dims=(64,), trials=99, threshold=100.0, seed=0)
        WishartConfig(dims=(64,), trials=100, threshold=100.0, seed=0)
        with pytest.raises(ValidationError, match="dims must not be empty"):
            WishartConfig(dims=(), trials=100, threshold=100.0, seed=0)
        with pytest.raises(ValidationError, match="dims must not be empty"):
            WishartConfig((), trials=100, seed=1)
        for dims in ((1,), (0, 64), (64, -2)):  # a half block needs two rows
            with pytest.raises(ValidationError, match="dims must be >= 2"):
                WishartConfig(dims=dims, trials=100, threshold=100.0, seed=0)
        WishartConfig(dims=(2,), trials=100, threshold=100.0, seed=0)

    @pytest.mark.parametrize("seed", (1, 2))
    def test_kappas_match_singular_values(self, seed):
        # oracle: kappa(W1 W1^T) = (s_max / s_min)^2, from an SVD of each
        # trial's own half block
        kappas = []
        for t in range(100):
            w1 = substream(seed, "wishart", 64, t).standard_normal((32, 64))
            s = np.linalg.svd(w1, compute_uv=False)
            kappas.append((s[0] / s[-1]) ** 2)
        report = run_wishart_conditioning(WishartConfig((64,), trials=100, seed=seed))
        values = {r.estimator: r.value for r in report.rows}
        for name, q in (("kappa_median", 50), ("kappa_p05", 5), ("kappa_p95", 95)):
            assert values[name] == pytest.approx(np.percentile(kappas, q), rel=1e-9, abs=0)

    def test_determinism(self):
        a = run_wishart_conditioning(WishartConfig((32,), trials=100, seed=3))
        b = run_wishart_conditioning(WishartConfig((32,), trials=100, seed=3))
        assert [r.as_dict() for r in a.rows] == [r.as_dict() for r in b.rows]


class TestCounterexample:
    def test_values_match_two_point_closed_form(self):
        report = run_counterexample(CounterexampleConfig((8, 16, 64), samples=20_000, seed=4))
        for row in report.select("orlicz"):
            assert row.value == pytest.approx(
                math.sqrt(row.n / math.log(2.0)), rel=1e-6)

    def test_slope_is_half(self):
        report = run_counterexample(CounterexampleConfig((8, 16, 64), samples=20_000, seed=4))
        (slope_row,) = report.select("loglog_slope")
        assert 0.45 <= slope_row.value <= 0.55
        assert report.metadata["config"] == {"dims": [8, 16, 64], "samples": 20_000}

    def test_span_validation(self):
        with pytest.raises(ValidationError):
            CounterexampleConfig((8, 16), samples=20_000, seed=0)
        with pytest.raises(ValidationError):
            CounterexampleConfig((8, 16, 32), samples=20_000, seed=0)
        for dims in ((0, 8, 64), (-1, 8, 64), (8, 0, 64)):
            with pytest.raises(ValidationError, match="dims must be >= 1"):
                CounterexampleConfig(dims=dims, samples=20_000, seed=0)
            with pytest.raises(ValidationError, match="dims must be >= 1"):
                CounterexampleConfig(dims, samples=20_000)
        CounterexampleConfig(dims=(1, 2, 8), samples=20_000, seed=0)

    def test_samples_floor(self):
        # the scan needs 1e4 draws; the config refuses fewer before sampling
        with pytest.raises(ValidationError, match="samples"):
            CounterexampleConfig(dims=(8, 16, 64), samples=9_999, seed=0)
        with pytest.raises(ValidationError, match="samples"):
            CounterexampleConfig((8, 16, 64), samples=5_000)

    def test_peak_memory_is_about_one_sign_sample(self, monkeypatch):
        # with small scan blocks the sample dominates: the signs are held once,
        # with neither the draws nor a transposed copy beside them
        monkeypatch.setattr(psi2_estimation, "SCAN_BLOCK_BYTES", 2**20)
        rows, dims = 10**5, (8, 16, 64)
        tracemalloc.start()  # it sees numpy's buffers
        try:
            run_counterexample(CounterexampleConfig(dims, rows, 1), threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows * max(dims) * 8


@pytest.mark.parametrize("build", [
    lambda: TheoremConfig(dims=(16.5,), kappas=(1.0,)),
    lambda: TheoremConfig(dims=(16,), kappas=(1.0,), directions=2.5),
    lambda: CorollaryConfig(dims=(32, 64.5)),
    lambda: CorollaryConfig(dims=(32,), directions=math.nan),
    lambda: WishartConfig(dims=(8.9, 16), trials=100, threshold=100.0, seed=1),
    lambda: CounterexampleConfig(dims=(8, 16, 64.25), samples=10_000, seed=1),
    lambda: run_wishart_conditioning(WishartConfig((8.9, 16))),
    lambda: run_counterexample(CounterexampleConfig((8.5, 16, 64))),
    lambda: TheoremConfig(dims=(16.0,), kappas=(1.0,)),
    lambda: TheoremConfig(dims=(16,), kappas=(1.0,), samples=1e4),
    lambda: TheoremConfig(dims=(16,), kappas=(1.0,), samples=math.nan),
    lambda: TheoremConfig(dims=(16,), kappas=(1.0,), directions=True),
    lambda: CorollaryConfig(dims=(32,), w_draws=20.5),
    lambda: CorollaryConfig(dims=(32,), samples=1e5),
    lambda: WishartConfig(dims=(16,), trials=100.5, threshold=100.0, seed=1),
    lambda: CounterexampleConfig(dims=(8, 16, 64), samples=1e4, seed=1),
    lambda: run_wishart_conditioning(WishartConfig((16.0, 32))),
    lambda: sample_gaussian(CovarianceSpec.identity(4), 1e4, 0, 0),
    lambda: scan_directions(np.ones((2000, 3)), 2.5, 0, 0),
], ids=["theorem-dims", "theorem-directions", "corollary-dims", "corollary-directions",
        "wishart-dims", "counterexample-dims", "run_wishart", "run_counterexample",
        "theorem-float-dims", "theorem-float-samples", "theorem-nan-samples",
        "theorem-bool-directions", "corollary-w-draws", "corollary-float-samples",
        "wishart-trials", "counterexample-float-samples", "run_wishart-float-dims",
        "sample_gaussian", "scan_directions"])
def test_non_integral_counts_rejected(build):
    # a float, even a whole one, or a bool is no count: a study would truncate
    # it, or fail deep inside with a TypeError
    with pytest.raises(ValidationError, match="integer"):
        build()


@pytest.mark.parametrize("build", [
    lambda: TheoremConfig(dims=(4, 4, 8)),
    lambda: TheoremConfig(kappas=(1.0, 1)),
    lambda: TheoremConfig(maps=("sgn", "clamp", "sgn")),
    lambda: CounterexampleConfig(dims=(16, 16, 128)),
], ids=["dims", "kappas", "maps", "counterexample-dims"])
def test_repeated_grid_value_rejected(build):
    # a repeat would run a cell twice and write its rows twice
    with pytest.raises(ValidationError, match="must not repeat"):
        build()


class TestReportPlumbing:
    def test_maps_run_one_after_another(self):
        # one map after another: each map's rows are those of a run of it alone
        grid = dict(dims=(8,), kappas=(1.0,), samples=20_000, directions=8, seed=7)
        both = run_theorem_experiment(TheoremConfig(maps=("sgn", "one"), **grid))
        alone = [run_theorem_experiment(TheoremConfig(maps=(name,), **grid))
                 for name in ("sgn", "one")]
        assert both.rows == alone[0].rows + alone[1].rows
        assert both.metadata["config"]["maps"] == ["sgn", "one"]

    @pytest.mark.parametrize("maps,match", [((), "maps must not be empty"),
                                            (("sgn", "sgnn"), "unknown map name")],
                             ids=("empty", "unknown"))
    def test_maps_checked_when_built(self, maps, match):
        with pytest.raises(ValidationError, match=match):
            TheoremConfig(dims=(8,), kappas=(1.0,), maps=maps)

    def test_metadata_carries_seed_and_version_hash(self):
        report = run_wishart_conditioning(WishartConfig((16,), trials=100, seed=9))
        assert report.metadata["seed"] == 9
        assert report.metadata["config"] == {"dims": [16], "trials": 100, "threshold": 100.0}
        assert len(report.metadata["artifact_version"]) == 12
        assert "kappa > 100 " in report.metadata["kappa_exceedance_threshold_note"]

    def test_threshold_note_names_the_threshold_used(self):
        report = run_wishart_conditioning(WishartConfig((16,), trials=100, threshold=50.0))
        assert "kappa > 50 " in report.metadata["kappa_exceedance_threshold_note"]
        theorem = run_theorem_experiment(TheoremConfig(
            dims=(8,), kappas=(1.0,), maps=("one",), samples=10_000, directions=0))
        assert "kappa_exceedance_threshold_note" not in theorem.metadata
