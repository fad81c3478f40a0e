import json

import numpy as np
import pytest

from subgauss import gaussian_core
import subgauss.cli_report as cli
from subgauss.cli_report import (
    DEFAULTS,
    STUDIES,
    _assemble_run_config,
    build_parser,
    emit_report,
    parse_config,
    run_cli,
)
from subgauss.errors import IoError, SchemaError, ValidationError
from subgauss.experiments import (
    CounterexampleConfig,
    ExperimentReport,
    ReportRow,
    TheoremConfig,
    WishartConfig,
    config_echo,
    report_metadata,
    run_counterexample,
    run_wishart_conditioning,
)

CX_ARGS = ["counterexample", "--dims", "8,16,64", "--samples", "20000", "--seed", "7"]
THEOREM_ARGS = ["theorem", "--maps", "sgn,clamp", "--dims", "8,16", "--kappas", "1,4",
                "--samples", "10000", "--directions", "4", "--seed", "3"]
COROLLARY_ARGS = ["corollary", "--dims", "16", "--w-draws", "20", "--samples", "10000",
                  "--directions", "0", "--seed", "3"]


def tiny_report(passed=True):
    rows = (ReportRow("wishart", 16, None, "kappa_median", 30.0),
            ReportRow("wishart", 16, None, "kappa_exceed_rate",
                      0.0 if passed else 0.5, bound=0.01))
    return ExperimentReport("wishart", rows, report_metadata("wishart", 1, {}))


class TestParseConfig:
    def test_valid_counterexample(self):
        run = parse_config(
            '{"experiment":"counterexample","dims":[16,64,256],"samples":100000,"seed":7}')
        assert run.configs == {
            "counterexample": CounterexampleConfig((16, 64, 256), samples=100_000, seed=7)}

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValidationError):
            parse_config('{"experiment":"theorem","kappas":[0.5]}')

    def test_unknown_key_named(self):
        with pytest.raises(SchemaError, match="kapa"):
            parse_config('{"experiment":"theorem","kapa":[1]}')

    def test_not_json(self):
        with pytest.raises(SchemaError):
            parse_config("dims: [16]")

    def test_missing_experiment(self):
        with pytest.raises(SchemaError, match="experiment"):
            parse_config('{"dims":[16]}')

    def test_wrong_type(self):
        with pytest.raises(ValidationError):
            parse_config('{"experiment":"counterexample","samples":"many"}')

    def test_seed_from_environment(self, monkeypatch):
        monkeypatch.setenv("SUBGAUSS_SEED", "99")
        run = parse_config('{"experiment":"wishart"}')
        assert run.configs == {"wishart": WishartConfig(seed=99)}

    def test_seed_default_constant(self, monkeypatch):
        monkeypatch.delenv("SUBGAUSS_SEED", raising=False)
        run = parse_config('{"experiment":"wishart"}')
        assert run.configs == {"wishart": WishartConfig(seed=42)}

    def test_round_trip_through_echo(self, tmp_path):
        # an emitted sidecar's metadata reads back as the run that wrote it
        original = parse_config(
            '{"experiment":"counterexample","dims":[8,16,64],"samples":20000,"seed":3}')
        emit_report(run_counterexample(original.configs["counterexample"]), "csv", tmp_path)
        meta = json.loads((tmp_path / "counterexample.json").read_text())["metadata"]
        again = parse_config(json.dumps(
            {"experiment": meta["experiment"], "seed": meta["seed"], **meta["config"]}))
        assert again == original

    def test_all_experiment_builds_every_config(self):
        run = parse_config('{"experiment":"all","seed":1}')
        assert list(run.configs) == ["theorem", "corollary", "wishart", "counterexample"]
        assert run.configs == {name: cls(seed=1) for name, cls in STUDIES.items()}

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_report_config_echo_reads_back_as_a_config_file(self, name):
        # a sidecar's metadata.config plus the experiment and seed is a config file
        cfg = STUDIES[name](seed=5)
        doc = {"experiment": name, "seed": 5, **config_echo(cfg)}
        assert parse_config(json.dumps(doc)).configs[name] == cfg

    def test_all_experiment_rejects_parameter_keys(self):
        with pytest.raises(SchemaError):
            parse_config('{"experiment":"all","dims":[16]}')


class TestEmitReport:
    def test_csv_plus_sidecar_plus_curves(self, tmp_path):
        paths = emit_report(tiny_report(), "csv", tmp_path)
        names = {p.name for p in paths}
        assert names == {"wishart.csv", "wishart.json", "wishart_curves.csv"}
        header = (tmp_path / "wishart.csv").read_text().splitlines()[0]
        assert header == "experiment,n,kappa,estimator,value,ci_low,ci_high,bound,pass"

    def test_empty_report_header_only(self, tmp_path):
        report = ExperimentReport("wishart", (), report_metadata("wishart", 1, {}))
        emit_report(report, "csv", tmp_path)
        assert len((tmp_path / "wishart.csv").read_text().splitlines()) == 1

    @pytest.mark.parametrize("format", ("csv", "json"))
    def test_numpy_dims_are_written_as_python_ints(self, format, tmp_path):
        # numpy integers are counts too; a report of them reads as one of ints
        report = run_wishart_conditioning(
            WishartConfig(tuple(np.array([16, 32])), trials=100, seed=9))
        again = run_wishart_conditioning(WishartConfig((16, 32), trials=100, seed=9))
        assert report.metadata == again.metadata
        emit_report(report, format, tmp_path / "np")
        emit_report(again, format, tmp_path / "int")
        doc, doc_int = (json.loads((tmp_path / d / "wishart.json").read_text())
                        for d in ("np", "int"))
        for d in (doc, doc_int):
            del d["run_env"]
        assert doc == doc_int

    def test_json_format_embeds_rows(self, tmp_path):
        (path,) = emit_report(tiny_report(), "json", tmp_path)
        doc = json.loads(path.read_text())
        assert doc["row_count"] == 2
        assert doc["rows"][0]["estimator"] == "kappa_median"

    def test_refuses_overwrite_without_force(self, tmp_path):
        emit_report(tiny_report(), "csv", tmp_path)
        with pytest.raises(IoError, match="force"):
            emit_report(tiny_report(), "csv", tmp_path)

    def test_force_overwrites(self, tmp_path):
        emit_report(tiny_report(), "csv", tmp_path)
        emit_report(tiny_report(), "csv", tmp_path, force=True)

    def test_unwritable_target_raises_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(IoError):
            emit_report(tiny_report(), "csv", blocker / "sub")

    def test_sidecar_deterministic_apart_from_run_env(self, tmp_path):
        docs = []
        # neither the output dir nor the thread count reaches the sidecar but run_env
        for threads in ("1", "3"):
            out = tmp_path / threads
            assert run_cli(CX_ARGS + ["--out", str(out), "--threads", threads]) == 0
            docs.append(json.loads((out / "counterexample.json").read_text()))
        envs = [doc.pop("run_env") for doc in docs]
        assert {"generated_at", "threads"} == set(envs[0]) == set(envs[1])
        assert [env["threads"] for env in envs] == [1, 3]
        assert docs[0] == docs[1]
        assert set(docs[0]) == {"experiment", "all_passed", "row_count", "metadata", "versions"}
        assert {"subgauss", "numpy", "scipy", "python"} == set(docs[0]["versions"])


class TestRunCli:
    def test_selftest_exit_zero(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2

    def test_counterexample_writes_reports(self, tmp_path, capsys):
        code = run_cli(CX_ARGS + ["--out", str(tmp_path / "a")])
        assert code == 0
        assert (tmp_path / "a" / "counterexample.csv").exists()

    def test_byte_identical_across_seeds_and_threads(self, tmp_path):
        run_cli(CX_ARGS + ["--out", str(tmp_path / "a")])
        run_cli(CX_ARGS + ["--out", str(tmp_path / "b"), "--threads", "4"])
        a = (tmp_path / "a" / "counterexample.csv").read_bytes()
        b = (tmp_path / "b" / "counterexample.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("args", (
        ["theorem", "--maps", "sgn,clamp", "--dims", "4,16", "--kappas", "4",
         "--samples", "10000", "--seed", "3"],
        ["corollary", "--dims", "8,16", "--w-draws", "20", "--samples", "10000",
         "--directions", "8", "--seed", "3"],
    ), ids=("theorem", "corollary"))
    def test_reports_byte_identical_across_threads(self, args, tmp_path):
        for threads in ("1", "3"):
            assert run_cli(args + ["--threads", threads, "--out", str(tmp_path / threads)]) in (0, 1)
        for suffix in (".csv", "_curves.csv"):
            name = args[0] + suffix
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        # counterexample values are exact closed forms, so probe seed
        # sensitivity on an experiment with genuine sampling noise
        base = ["wishart", "--dims", "16", "--trials", "100"]
        run_cli(base + ["--seed", "7", "--out", str(tmp_path / "a")])
        run_cli(base + ["--seed", "8", "--out", str(tmp_path / "c")])
        a = (tmp_path / "a" / "wishart.csv").read_bytes()
        c = (tmp_path / "c" / "wishart.csv").read_bytes()
        assert a != c

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"experiment":"counterexample","dims":[8,16,64],"samples":20000}')
        code = run_cli(["counterexample", "--config", str(cfg), "--seed", "7",
                        "--out", str(tmp_path / "out")])
        assert code == 0

    def test_usage_error_exit_64(self):
        assert run_cli(["bogus"]) == 64

    def test_validation_error_exit_64(self):
        assert run_cli(["theorem", "--kappas", "0.5"]) == 64

    def test_schema_error_exit_64(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"experiment":"theorem","kapa":[1]}')
        assert run_cli(["theorem", "--config", str(cfg)]) == 64

    def test_overwrite_refusal_exit_2(self, tmp_path):
        out = str(tmp_path / "a")
        assert run_cli(CX_ARGS + ["--out", out]) == 0
        assert run_cli(CX_ARGS + ["--out", out]) == 2
        assert run_cli(CX_ARGS + ["--out", out, "--force"]) == 0

    def test_existing_report_refused_before_any_study(self, tmp_path, monkeypatch):
        def never(run, threads=1):
            raise AssertionError("a study ran although its report would be refused")

        monkeypatch.setattr(cli, "run_experiments", never)
        (tmp_path / "wishart.csv").write_text("kept\n")
        assert run_cli(["all", "--out", str(tmp_path)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["wishart.csv"]
        assert (tmp_path / "wishart.csv").read_text() == "kept\n"

    def test_runner_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # a wrapper bound over the module's runner name is the one that runs
        calls = []

        def recording(cfg, **kwargs):
            calls.append(cfg)
            return run_counterexample(cfg, **kwargs)

        monkeypatch.setattr(cli, "run_counterexample", recording)
        assert run_cli(CX_ARGS + ["--out", str(tmp_path)]) == 0
        assert calls == [CounterexampleConfig((8, 16, 64), samples=20_000, seed=7)]

    def test_bound_violation_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_experiments",
                            lambda run, threads=1: [tiny_report(passed=False)])
        assert run_cli(CX_ARGS + ["--out", str(tmp_path / "x")]) == 1

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBGAUSS_THREADS", "2")
        assert run_cli(CX_ARGS + ["--out", str(tmp_path / "env")]) == 0

    def test_config_for_other_experiment_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"experiment":"wishart"}')
        assert run_cli(["counterexample", "--config", str(cfg)]) == 64


class TestParameterTable:
    @pytest.mark.parametrize("doc", [
        '{"experiment":"counterexample","dims":["a",16,64]}',
        '{"experiment":"theorem","kappas":["x"]}',
        '{"experiment":"counterexample","dims":[16.7,64,256]}',
        '{"experiment":"counterexample","samples":true}',
        '{"experiment":"wishart","threshold":false}',
        '{"experiment":"theorem","maps":"sgn"}',
    ])
    def test_wrong_kind_is_a_config_error(self, doc, tmp_path):
        with pytest.raises(ValidationError):
            parse_config(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(doc)
        out = tmp_path / "out"
        assert run_cli([json.loads(doc)["experiment"], "--config", str(cfg),
                        "--out", str(out)]) == 64
        assert not out.exists()

    @pytest.mark.parametrize("study,key", [(study, key) for study, params in DEFAULTS.items()
                                           for key in params])
    def test_json_key_and_flag_agree(self, study, key):
        default = DEFAULTS[study][key]
        text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        from_json = parse_config(json.dumps({"experiment": study, key: default, "seed": 5}))
        args = build_parser().parse_args(
            [study, "--" + key.replace("_", "-"), text, "--seed", "5"])
        assert _assemble_run_config(args) == from_json
        assert getattr(from_json.configs[study], key) == default

    @pytest.mark.parametrize("args", [
        ["theorem", "--directions", "-3"],
        ["corollary", "--directions", "-1"],
        ["counterexample", "--samples", "5000"],
        ["counterexample", "--dims", "8,16,32"],
        ["wishart", "--trials", "50"],
        ["wishart", "--dims", "1"],
        ["counterexample", "--dims", "0,8,64"],
        ["counterexample", "--dims=-1,8,64"],
        ["theorem", "--threads", "0"],
        ["counterexample", "--dims", "16,16,128"],
        ["theorem", "--dims", "4,4,8", "--kappas", "1,1"],
        ["theorem", "--maps", "threshold:1,threshold:1.0"],
        ["theorem", "--maps", "threshold:0,threshold:-0"],
    ])
    def test_precondition_exits_64_before_any_study(self, args, tmp_path):
        out = tmp_path / "out"
        assert run_cli(args + ["--out", str(out)]) == 64
        assert not out.exists()

    def test_thread_count_from_env_below_one_exits_64(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SUBGAUSS_THREADS", "0")
        out = tmp_path / "out"
        assert run_cli(["wishart", "--out", str(out)]) == 64
        assert not out.exists()

    def test_flag_overrides_config_value(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"experiment":"wishart","trials":50,"dims":[16]}')
        args = build_parser().parse_args(["wishart", "--config", str(cfg), "--trials", "200"])
        run = _assemble_run_config(args)
        assert run.configs["wishart"].trials == 200
        assert run.configs["wishart"].dims == (16,)

    @pytest.mark.parametrize("study,key", [("theorem", "dims"), ("theorem", "kappas"),
                                           ("theorem", "maps"), ("wishart", "dims"),
                                           ("corollary", "dims")])
    def test_empty_list_is_a_config_error(self, study, key, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            parse_config(json.dumps({"experiment": study, key: []}))
        out = tmp_path / "out"
        assert run_cli([study, "--" + key, ",", "--out", str(out)]) == 64
        assert not out.exists()

    @pytest.mark.parametrize("study,key,text,json_value", [
        ("theorem", "kappas", "nan", "[NaN]"), ("theorem", "kappas", "inf", "[Infinity]"),
        ("theorem", "kappas", "-inf", "[-Infinity]"), ("wishart", "threshold", "nan", "NaN"),
        ("wishart", "threshold", "inf", "Infinity"),
        ("theorem", "maps", "threshold:nan", '["threshold:nan"]'),
        ("theorem", "maps", "threshold:inf", '["threshold:inf"]')])
    def test_non_finite_number_is_a_config_error(self, study, key, text, json_value, tmp_path):
        with pytest.raises(ValidationError, match="finite"):
            parse_config(f'{{"experiment":"{study}","{key}":{json_value}}}')
        out = tmp_path / "out"
        assert run_cli([study, f"--{key}={text}", "--out", str(out)]) == 64
        assert not out.exists()

    def test_run_config_keeps_built_configs(self):
        run = parse_config('{"experiment":"all","seed":1}')
        assert run.configs["theorem"] == TheoremConfig(maps=("sgn", "clamp"), seed=1)
        assert run.configs["counterexample"].dims == (16, 64, 256)

    def test_each_study_config_is_built_once(self, monkeypatch, tmp_path):
        # the runner is handed the config the run built, and checks nothing again
        built = []
        for cls in (WishartConfig, CounterexampleConfig):
            def counted(cfg, check=cls.__post_init__):
                built.append(type(cfg).__name__)
                check(cfg)

            monkeypatch.setattr(cls, "__post_init__", counted)
        wishart = ["wishart", "--dims", "16", "--trials", "100", "--seed", "3"]
        assert run_cli(wishart + ["--out", str(tmp_path / "w")]) in (0, 1)
        assert run_cli(CX_ARGS + ["--out", str(tmp_path / "c")]) == 0
        assert sorted(built) == ["CounterexampleConfig", "WishartConfig"]


class TestBlasThreads:
    """Study workers hold numpy's OpenBLAS at one thread; no report depends on it."""

    @pytest.fixture
    def blas(self):
        blas = gaussian_core._openblas_threads()
        if blas is None:
            pytest.skip("numpy links no bundled OpenBLAS")
        get, set_ = blas
        previous = get()
        yield get, set_
        set_(previous)

    def test_workers_run_with_one_blas_thread(self, blas):
        get, set_ = blas
        set_(2)
        assert gaussian_core.thread_map(lambda _: get(), range(4), 2) == [1] * 4
        assert get() == 2  # restored once the workers are done
        assert gaussian_core.thread_map(lambda _: get(), range(2), 1) == [2] * 2

    @pytest.mark.parametrize("args", (THEOREM_ARGS, COROLLARY_ARGS), ids=("theorem", "corollary"))
    def test_reports_byte_identical_across_blas_threads(self, blas, args, tmp_path):
        # one study thread, so BLAS runs at the count set here
        _, set_ = blas
        for count in (1, 2):
            set_(count)
            out = str(tmp_path / str(count))
            assert run_cli(args + ["--threads", "1", "--out", out]) in (0, 1)
        for suffix in (".csv", "_curves.csv"):
            name = args[0] + suffix
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
