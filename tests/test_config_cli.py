import copy
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grf_tomo import ConfigError, ReconstructionPlan, load_config
from grf_tomo import cli, config
from grf_tomo.config import ASSERTION_RULES, CHECKS, PAIR, from_dict, preset_path
from conftest import SRC, assert_manifest_lists_outputs, write_reduced_check_config


def base_config():
    return {
        "geometry": {"radius": 10.0},
        "kernel": {"half_width": 2.5, "exponent": 3},
        "noise": {"seed": 11},
        "experiment": {
            "center": [2.7, -3.1, 0.8],
            "offsets": [[2.159, 3.075, -0.418], [2.546, -2.974, 0.983],
                        [0.0, 0.0, 0.0]],
            "detector_step": 0.05,
            "n_views": 500,
            "realizations": 64,
            "bins": 5,
        },
    }


def _finite(lo=-5.0, hi=5.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_vec3 = st.lists(_finite(), min_size=3, max_size=3)


@st.composite
def valid_configs(draw):
    """Valid configuration documents with random subsets of optional fields."""
    data = base_config()
    data["geometry"]["radius"] = draw(_finite(5.0, 50.0))
    data["kernel"] = {"half_width": draw(_finite(0.1, 5.0)), "exponent": draw(st.integers(1, 8))}
    data["noise"]["seed"] = draw(st.integers(0, 2**64 - 1))
    exp = data["experiment"]
    exp["center"] = [draw(_finite(-1.0, 1.0)), draw(_finite(-1.0, 1.0)), draw(_finite())]
    # a zero and a nonzero offset, so that every assertion rule applies
    exp["offsets"] = draw(st.lists(_vec3.filter(any), min_size=1, max_size=3)) + [[0.0, 0.0, 0.0]]
    exp["n_views"] = draw(st.integers(1, 600))
    exp["realizations"] = draw(st.integers(2, 10**5))
    data["prediction"] = draw(st.fixed_dictionaries({}, optional={
        "panels": st.integers(1, 5000), "tolerance": _finite(1e-9, 1.0)}))
    box = st.tuples(_finite(), _finite()).filter(lambda p: p[0] < p[1]).map(list)
    data["checks"] = draw(st.fixed_dictionaries({}, optional={
        "ellipse_samples": st.integers(1, 10**5),
        "hessian_points": st.lists(_vec3, min_size=1, max_size=3),
        "hessian_resolution": st.integers(1000, 10**4),
        "degeneracy_tols": st.lists(_finite(1e-6, 1.0), min_size=2, max_size=5),
        "degeneracy_samples": st.integers(10**4, 10**5),
        "weyl": st.fixed_dictionaries({}, optional={
            "box": box, "exponents": st.lists(_finite(), min_size=2, max_size=6)}),
        "covariance_scan": st.fixed_dictionaries({
            "direction": _vec3.filter(any), "radii": st.lists(_finite(), min_size=1)}),
    }))
    data["assertions"] = {
        command: draw(st.fixed_dictionaries({}, optional={
            name: st.lists(_finite(), min_size=2, max_size=2) if rule.shape is PAIR
            else _finite() for name, rule in rules.items()}))
        for command, rules in ASSERTION_RULES.items()
    }
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(autouse=True)
def quiet_smoothness_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


class TestConfigValidation:
    def test_bundled_presets_load(self):
        for name in ("paper", "ci"):
            cfg = load_config(preset_path(name))
            assert cfg.n_views == 500
            assert cfg.offsets.shape == (3, 3)

    def test_malformed_json_reports_byte_offset(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"geometry": {')
        with pytest.raises(ConfigError, match="byte offset"):
            load_config(str(path))

    def test_missing_field_names_path(self):
        data = base_config()
        del data["geometry"]["radius"]
        with pytest.raises(ConfigError, match="geometry.radius"):
            from_dict(data)

    def test_nonpositive_step_rejected(self):
        data = base_config()
        data["experiment"]["detector_step"] = 0.0
        with pytest.raises(ConfigError, match="experiment.detector_step"):
            from_dict(data)

    def test_inadmissible_offset_rejected(self):
        data = base_config()
        data["experiment"]["offsets"] = [[200.0, 0.0, 0.0]]
        data["experiment"]["detector_step"] = 1.0
        with pytest.raises(ConfigError, match="offsets"):
            from_dict(data)

    def test_bad_kernel_rejected(self):
        data = base_config()
        data["kernel"]["half_width"] = -2.0
        with pytest.raises(ConfigError, match="kernel.half_width"):
            from_dict(data)

    def test_smoothness_warning_fires(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from_dict(base_config())
        assert any("smoothness" in str(w.message) for w in caught)

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=valid_configs())
    def test_round_trip(self, data):
        cfg = from_dict(data)
        again = from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert np.array_equal(again.offsets, cfg.offsets)
        # every checks field but the optional scan carries its value or default
        assert set(CHECKS) - set(again.checks) <= {"covariance_scan"}
        assert again.checks.get("covariance_scan") == data["checks"].get("covariance_scan")

    def test_replace_overrides(self, tmp_path):
        # --seed and --realizations: load replaces both in the document
        path = write_config(tmp_path, base_config())
        other = load_config(path, seed=99, realizations=128)
        assert other.seed == 99 and other.noise.seed == 99
        assert other.realizations == 128
        assert other.to_dict()["noise"]["seed"] == 99
        assert other.to_dict()["experiment"]["realizations"] == 128
        assert load_config(path).seed == 11
        with pytest.raises(ConfigError, match="experiment.realizations"):
            load_config(path, realizations=0)

    def test_document_keeps_every_schema_field(self, monkeypatch, tmp_path):
        # a field that only SCHEMA and from_dict know must still reach the
        # manifest and survive --seed and --realizations overrides
        monkeypatch.setitem(config.SCHEMA["prediction"].valid, "probe",
                            config.Field(1, config._integer(1), "an integer >= 1"))
        data = base_config()
        data["prediction"] = {"probe": 7}
        cfg = from_dict(data)
        assert cfg.to_dict()["prediction"] == {"panels": 2000, "tolerance": 1e-4, "probe": 7}
        path = write_config(tmp_path, data)
        assert load_config(path, seed=3).to_dict()["prediction"]["probe"] == 7
        # the copy is the caller's own
        cfg.to_dict()["prediction"]["probe"] = 8
        assert cfg.to_dict()["prediction"]["probe"] == 7


class TestCli:
    def test_predict_single_offset(self, tmp_path):
        data = base_config()
        data["experiment"]["offsets"] = [[0.0, 0.0, 0.0]]
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["predict", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "cov_pred.json").read_text())
        assert np.asarray(payload["matrix"]).shape == (1, 1)
        assert abs(payload["variance"] - 0.485) < 0.002
        manifest = json.loads((out / "manifest.json").read_text())
        assert "cov_pred.json" in manifest["outputs"]
        assert "cov_pred.csv" in manifest["outputs"]

    def test_simulate_outputs_and_thread_independence(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", path, "--out", str(out1),
                         "--threads", "1"]) == 0
        assert cli.main(["simulate", "--config", path, "--out", str(out2),
                         "--threads", "4"]) == 0
        names = ["stats.json", "hist1d_0.csv", "hist1d_1.csv", "hist1d_2.csv",
                 "hist2d.csv"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        stats = json.loads((out1 / "stats.json").read_text())
        assert stats["n_realizations"] == 64
        assert len(stats["sample_variance"]) == 3

    def test_predict_covariance_scan(self, tmp_path):
        data = base_config()
        data["checks"] = {"covariance_scan": {"direction": [1.0, 0.0, 0.0],
                                              "radii": [0.0, 1.0, 2.0]}}
        path = write_config(tmp_path, data)
        out = tmp_path / "scan"
        assert cli.main(["predict", "--config", path, "--out", str(out)]) == 0
        lines = (out / "cov_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "radius,covariance"
        assert len(lines) == 4
        # the scan starts at the center value
        assert abs(float(lines[1].split(",")[1]) - 0.485) < 0.002

    def test_simulate_stats_include_histograms(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "h"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats["histograms"]) == {"offset_0", "offset_1", "offset_2",
                                            "first_pair"}
        one = stats["histograms"]["offset_0"]
        assert len(one["edges"]) == len(one["observed_density"]) + 1

    def test_simulate_realizations_override(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", path, "--out", str(out),
                         "--realizations", "32"]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_realizations"] == 32

    def test_check_outputs(self, tmp_path):
        data = base_config()
        data["checks"] = {"ellipse_samples": 500, "degeneracy_samples": 20000,
                          "hessian_resolution": 1000}
        path = write_config(tmp_path, data)
        out = tmp_path / "c"
        assert cli.main(["check", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "checks.json").read_text())
        assert report["radon2d_root_count"] == 2
        assert report["weyl"]["slope"] <= -1.0 / 3.0 + 0.1
        assert not report["hessian_scans"][0]["degenerate"]
        assert (out / "weyl.csv").exists()

    def test_check_flags_source_plane_point(self, tmp_path):
        data = base_config()
        data["checks"] = {"ellipse_samples": 100,
                          "hessian_points": [[1.0, 1.0, 0.0]],
                          "hessian_resolution": 1000}
        path = write_config(tmp_path, data)
        out = tmp_path / "flag"
        assert cli.main(["check", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "checks.json").read_text())
        entry = report["hessian_scans"][0]
        assert entry["degenerate"] is True
        assert "x3 = 0" in entry["message"]

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["predict", "--config", str(path),
                         "--out", str(tmp_path / "x")]) == 2

    def test_numerical_error_exits_3(self, tmp_path):
        data = base_config()
        data["prediction"] = {"panels": 1, "tolerance": 1e-300}
        path = write_config(tmp_path, data)
        assert cli.main(["predict", "--config", path,
                         "--out", str(tmp_path / "n")]) == 3

    def test_simulate_fails_before_monte_carlo(self, tmp_path, monkeypatch):
        def reconstruct(*args, **kwargs):
            raise AssertionError("reconstruct ran before the prediction failed")

        monkeypatch.setattr(ReconstructionPlan, "reconstruct", reconstruct)
        data = base_config()
        data["prediction"] = {"panels": 1, "tolerance": 1e-300}
        path = write_config(tmp_path, data)
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "n")]) == 3

    def test_numerical_error_writes_no_file(self, tmp_path, monkeypatch):
        def histogram_density_2d(*args, **kwargs):
            raise ValueError("planted after the 1-D histograms")

        monkeypatch.setattr(cli, "histogram_density_2d", histogram_density_2d)
        out = tmp_path / "n"
        assert cli.main(["simulate", "--config", str(preset_path("ci")), "--out", str(out),
                         "--realizations", "64"]) == 3
        assert list(out.iterdir()) == []

    def test_assert_mode_exit_codes(self, tmp_path, capsys):
        data = base_config()
        data["assertions"] = {"predict": {"variance": [99.0, 1e-4],
                                          "cross_covariance": [0.011, 0.002]}}
        path = write_config(tmp_path, data)
        out = tmp_path / "fail"
        assert cli.main(["predict", "--config", path, "--out", str(out)]) == 0
        assert cli.main(["predict", "--config", path, "--out", str(out),
                         "--assert"]) == 4
        assert "assertion failed: assertions.predict.variance" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        records = {r["rule"]: r for r in manifest["assertions"]}
        assert set(records) == {"assertions.predict.variance",
                                "assertions.predict.cross_covariance"}
        variance = records["assertions.predict.variance"]
        assert variance["threshold"] == [99.0, 1e-4] and variance["passed"] is False
        assert abs(variance["value"] - 0.485) < 0.002
        assert records["assertions.predict.cross_covariance"]["passed"] is True

    @pytest.mark.parametrize("command,field,sections,offsets", [
        ("check", "checks.ellipse_samples", {"checks": {"ellipse_samples": "many"}}, None),
        ("check", "checks.degeneracy_tols", {"checks": {"degeneracy_tols": "tight"}}, None),
        ("check", "checks.weyl.box", {"checks": {"weyl": {"box": [0.8, 0.2]}}}, None),
        ("check", "checks.ellipse_sample", {"checks": {"ellipse_sample": 100}}, None),
        ("predict", "assertions.predict.cross_covariance",
         {"assertions": {"predict": {"cross_covariance": [99.0, 1e-9]}}}, [[0.0, 0.0, 0.0]]),
        ("simulate", "assertions.simulate.variance_rel",
         {"assertions": {"simulate": {"variance_rel": 0.08}}}, [[2.159, 3.075, -0.418]]),
        # n_views alone fixes the angular step
        pytest.param("predict", "experiment.view_step", {"experiment": dict(
            base_config()["experiment"], view_step=2.0 * np.pi / 500)}, None, id="view-step"),
        pytest.param("predict --threads 0", "--threads", {}, None, id="threads-0"),
        pytest.param("simulate --threads -4", "--threads", {}, None, id="threads-negative"),
        # a later --out overrides the test's own; {tmp}/file is a regular file
        pytest.param("check --out {tmp}/file", "--out", {}, None, id="out-is-file"),
        pytest.param("check --out {tmp}/file/out", "--out", {}, None, id="out-under-file"),
    ])
    def test_load_time_fault_exits_2(self, tmp_path, capsys, command, field, sections,
                                     offsets):
        data = base_config()
        data.update(copy.deepcopy(sections))
        if offsets is not None:
            data["experiment"]["offsets"] = offsets
        (tmp_path / "file").write_text("kept\n")
        out = tmp_path / "out"
        command, *options = command.format(tmp=tmp_path).split()
        try:
            code = cli.main([command, "--config", write_config(tmp_path, data),
                             "--out", str(out), "--assert", *options])
        except SystemExit as exc:       # argparse rejects a bad command-line value
            code = exc.code
        assert code == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not out.exists()
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_scan_without_fields_exits_2(self, tmp_path, capsys):
        data = base_config()
        data["checks"] = {"covariance_scan": {"radii": [0.0, 1.0]}}
        path = write_config(tmp_path, data)
        out = tmp_path / "s"
        assert cli.main(["predict", "--config", path, "--out", str(out)]) == 2
        assert "checks.covariance_scan.direction" in capsys.readouterr().err
        assert not out.exists()
        data["checks"] = {"covariance_scan": {"direction": [0.0, 0.0, 0.0],
                                              "radii": [0.0, 1.0]}}
        with pytest.raises(ConfigError, match="checks.covariance_scan.direction"):
            from_dict(data)
        data["checks"] = {"covariance_scan": {"direction": [1.0, 0.0, 0.0],
                                              "radii": []}}
        with pytest.raises(ConfigError, match="checks.covariance_scan.radii"):
            from_dict(data)

    def test_single_realization_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "r"
        assert cli.main(["simulate", "--config", path, "--out", str(out),
                         "--realizations", "1"]) == 2
        assert "experiment.realizations" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_assertion_rule_exits_2(self, tmp_path, capsys):
        data = base_config()
        data["assertions"] = {"predict": {"varianse": [0.485, 0.002]}}
        path = write_config(tmp_path, data)
        out = tmp_path / "a"
        assert cli.main(["predict", "--config", path, "--out", str(out),
                         "--assert"]) == 2
        assert "assertions.predict.varianse" in capsys.readouterr().err
        assert not out.exists()
        data["assertions"] = {"simulation": {"variance_rel": 0.08}}
        with pytest.raises(ConfigError, match="assertions.simulation"):
            from_dict(data)
        data["assertions"] = {"predict": {"variance": 0.485}}
        with pytest.raises(ConfigError, match="assertions.predict.variance"):
            from_dict(data)

    @pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
    def test_import_pins_openblas_threads(self, preset, expected):
        # a fresh process: the pin must act before numpy's first import
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = SRC
        probe = ("import os, grf_tomo; print(os.environ['OPENBLAS_NUM_THREADS'], "
                 "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
                 "else 1)")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        value, threads = result.stdout.split()
        assert value == expected
        if preset is None:
            assert threads == "1"

    @pytest.mark.parametrize("argv,unused", [
        (["check", "--config", "{reduced_check}"],
         ["numpy.ma", "numpy.random", "concurrent.futures", "numpy.polynomial"]),
        (["predict", "--config", "{ci}"], ["numpy.ma", "numpy.random"]),
        (["simulate", "--config", "{ci}", "--threads", "1", "--realizations", "8"],
         ["numpy.ma", "numpy.random", "concurrent.futures"]),
        (["simulate", "--config", "{ci}", "--threads", "2", "--realizations", "8"],
         ["numpy.ma", "numpy.random"]),
    ], ids=["check", "predict", "simulate-threads-1", "simulate-threads-2"])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, unused):
        # a fresh process, so that no other test has imported these modules
        paths = {"reduced_check": write_reduced_check_config(tmp_path / "check.json"),
                 "ci": preset_path("ci")}
        argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
        probe = ("import json, sys; from grf_tomo import cli; code = cli.main(sys.argv[1:]); "
                 f"print(json.dumps([code, [m for m in {unused!r} if m in sys.modules]]))")
        result = subprocess.run([sys.executable, "-W", "ignore", "-c", probe, *argv],
                                env=dict(os.environ, PYTHONPATH=SRC),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [0, []]

    def test_overrides_warn_once(self, tmp_path):
        # --seed and --realizations edit the document before its one
        # from_dict, so the preset's smoothness warning prints once
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = SRC
        result = subprocess.run(
            [sys.executable, "-m", "grf_tomo.cli", "simulate", "--config", str(preset_path("ci")),
             "--seed", "3", "--realizations", "8", "--threads", "1",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stderr.count("kernel.exponent: smoothness") == 1, result.stderr

    def test_console_script_version(self):
        result = subprocess.run([sys.executable, "-m", "grf_tomo.cli", "--version"],
                                env=dict(os.environ, PYTHONPATH=SRC),
                                capture_output=True, text=True)
        assert result.returncode == 0


# sha256 of the simulate outputs for ci.json at --realizations 256 --threads 2,
# taken before the histogram bin ranges were fixed to the sample-based
# default; the manifest carries timestamps and is not covered
GOLDEN_SIMULATE = {
    "stats.json": "8512ff83b128c82f32c580f724286db7ab4ecf02ebbe5b9d9272d992db60b571",
    "hist1d_0.csv": "9dba819717af2a59157f6120847262f736bc59911a11397e1a3e5c5efd3cdd7e",
    "hist1d_1.csv": "09ff01b7cb879412cb89df1e236d90a80908b406c9da57931bc821a915d384c8",
    "hist1d_2.csv": "9c66f70b912384f24cf3e791f6319677077a673047b020e68093477514a28ed8",
    "hist2d.csv": "ef3b77d5da372adfb3ba373d1242d913345eb500a4039f25b71baab7e200181a",
}


def test_golden_simulate_digests(tmp_path):
    assert cli.main(["simulate", "--config", str(preset_path("ci")), "--out", str(tmp_path),
                     "--realizations", "256", "--threads", "2"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SIMULATE}
    assert digests == GOLDEN_SIMULATE
    assert_manifest_lists_outputs(tmp_path)


# sha256 of the predict outputs for ci.json with a covariance scan added,
# taken while each command still wrote its own files
GOLDEN_PREDICT = {
    "cov_pred.json": "175abb07f9e8c64a162ec7e1b563438049e0f61afc9d80d8c37bc6bea9465919",
    "cov_pred.csv": "759b609a8e6bdeeb65a703da04fab2b65dac933bf232fe8440b382393aacfb41",
    "cov_scan.csv": "36a20d498eb1b3b6a8fcdfbf33c578a706fbfe1ed4093a3df5688a9aad71129d",
}


def test_golden_predict_digests(tmp_path):
    with open(preset_path("ci")) as fh:
        data = json.load(fh)
    data["checks"]["covariance_scan"] = {"direction": [0.3, 1.0, -0.5],
                                         "radii": [0.0, 0.5, 1.0, 2.0, 3.5]}
    out = tmp_path / "out"
    assert cli.main(["predict", "--config", write_config(tmp_path, data),
                     "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_PREDICT}
    assert digests == GOLDEN_PREDICT
    assert_manifest_lists_outputs(out)
