import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grf_tomo import ConeBeamGeometry, ConfigError, ReconstructionPlan, load_config
from grf_tomo import cli, config
from grf_tomo.config import (ASSERTION_RULES, CHECKS, PAIR, ExperimentConfig, from_dict,
                             preset_path)
from grf_tomo.geometry import TWO_PI, DegenerateProjectionError
from grf_tomo.recon import _INDEX_BIAS
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
        },
    }


# document fields that became constants, each with a value a document might
# still set; "prediction.panels" is refused at its unknown section
RETIRED_FIELDS = {
    "prediction": {},
    "prediction.panels": 2000,
    "experiment.bins": 21,
    "geometry.admissible_fraction": 0.9,
    "checks.weyl": {"box": [0.2, 0.8]},
    "checks.degeneracy_tols": "tight",
}


def _finite(lo=-5.0, hi=5.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_vec3 = st.lists(_finite(), min_size=3, max_size=3)


@st.composite
def valid_configs(draw):
    """Valid configuration documents with random subsets of optional fields."""
    data = base_config()
    radius = data["geometry"]["radius"] = draw(_finite(5.0, 50.0))
    data["kernel"] = {"half_width": draw(_finite(0.1, 5.0)), "exponent": draw(st.integers(1, 8))}
    data["noise"]["seed"] = draw(st.integers(0, 2**64 - 1))
    exp = data["experiment"]
    exp["center"] = [draw(_finite(-1.0, 1.0)), draw(_finite(-1.0, 1.0)), draw(_finite())]
    # a zero and a nonzero offset, so that every assertion rule applies
    exp["offsets"] = draw(st.lists(_vec3.filter(any), min_size=1, max_size=3)) + [[0.0, 0.0, 0.0]]
    exp["n_views"] = draw(st.integers(1, 600))
    exp["realizations"] = draw(st.integers(2, 10**5))
    # Hessian points inside the drawn radius's cylinder: |x1|, |x2| <= 0.6 R
    # keeps hypot(x1, x2) below the default 0.9 R
    inside = st.tuples(_finite(-0.6 * radius, 0.6 * radius),
                       _finite(-0.6 * radius, 0.6 * radius), _finite()).map(list)
    data["checks"] = draw(st.fixed_dictionaries({}, optional={
        "ellipse_samples": st.integers(1, 10**5),
        "hessian_points": st.lists(inside, min_size=1, max_size=3),
        "hessian_resolution": st.integers(1000, 10**4),
        "degeneracy_samples": st.integers(10**4, 10**5),
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
            assert cfg.noise.n_views == 500
            assert cfg.offsets.shape == (3, 3)

    @pytest.mark.parametrize("name", ["paper", "ci"])
    def test_noise_model_owns_the_documents_view_count(self, name):
        # the view step is 2*pi over the document's view count, so the views
        # close one turn, and the document keeps the count it was given
        with open(preset_path(name)) as fh:
            n_views = json.load(fh)["experiment"]["n_views"]
        cfg = load_config(preset_path(name))
        assert cfg.noise.n_views == n_views
        assert cfg.noise.delta_s == TWO_PI / n_views
        assert cfg.to_dict()["experiment"]["n_views"] == n_views

    @pytest.mark.parametrize("name", ["paper", "ci"])
    def test_noise_model_owns_step_and_seed(self, name):
        # the configuration reads its detector step and seed from the noise
        # model, so a replaced model leaves no stale copy behind
        for cfg in (load_config(preset_path(name)), load_config(preset_path(name), seed=3)):
            assert cfg.eps == cfg.noise.eps and cfg.seed == cfg.noise.seed
        assert cfg.seed == 3
        moved = dataclasses.replace(cfg, noise=dataclasses.replace(cfg.noise, seed=7, eps=0.025))
        assert moved.seed == 7 and moved.eps == 0.025
        assert np.array_equal(moved.points, moved.center + 0.025 * moved.offsets)

    @pytest.mark.parametrize("name", ["paper", "ci"])
    def test_document_echoes_replaced_objects(self, name):
        # to_dict reads each field an object owns from that object, so the
        # echo of a replaced noise model or center rebuilds the replaced run
        cfg = load_config(preset_path(name))
        moved = dataclasses.replace(cfg, noise=dataclasses.replace(cfg.noise, seed=7, eps=0.025),
                                    center=cfg.center + 0.5, realizations=32)
        again = from_dict(moved.to_dict())
        assert (again.seed, again.eps, again.realizations) == (7, 0.025, 32)
        assert np.array_equal(again.points, moved.points)
        assert moved.to_dict()["experiment"]["center"] == (cfg.center + 0.5).tolist()
        # an unreplaced config echoes its document, int spelling included
        data = base_config()
        data["geometry"]["radius"] = 10
        assert type(from_dict(data).to_dict()["geometry"]["radius"]) is int

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
        # the message names the offset by its own index in experiment.offsets
        data = base_config()
        data["experiment"]["offsets"] = [[200.0, 0.0, 0.0]]
        data["experiment"]["detector_step"] = 1.0
        with pytest.raises(ConfigError, match="^experiment.offsets: point 0 at"):
            from_dict(data)
        data["experiment"]["offsets"] = [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [200.0, 0.0, 0.0]]
        with pytest.raises(ConfigError, match="^experiment.offsets: point 2 at"):
            from_dict(data)

    def test_load_projects_no_point(self, monkeypatch, tmp_path):
        # the cylinder rule bounds every view's projection denominator, so
        # load projects nothing, even at the largest view count the schema allows
        def project(*args, **kwargs):
            raise AssertionError("load projected a point")

        monkeypatch.setattr(ConeBeamGeometry, "project", project)
        data = base_config()
        data["experiment"]["n_views"] = 2**21
        assert load_config(write_config(tmp_path, data)).noise.n_views == 2**21

    @settings(deadline=None, max_examples=100)
    @given(radius=st.floats(0.5, 50.0), half_width=st.floats(0.1, 5.0),
           step=st.floats(1e-4, 1.0), n_views=st.integers(1, 8), scale=st.floats(0.0, 1.0),
           phi=st.floats(0.0, 2 * np.pi),
           height=st.floats(0.99, 1.01) | st.floats(-1.5, 1.5))
    def test_loaded_points_pack(self, radius, half_width, step, n_views, scale, phi, height):
        # x3 is drawn in units of the largest height the load bound admits,
        # so the drawn points fall on both sides of it
        rho = scale * 0.9 * radius
        support = 1.0 + half_width
        top = (_INDEX_BIAS - support - 1.0) * step * (1.0 - rho / radius)
        data = base_config()
        data["geometry"] = {"radius": radius}
        data["kernel"]["half_width"] = half_width
        data["experiment"].update(
            center=[0.0, 0.0, 0.0], detector_step=step, n_views=n_views,
            offsets=[[rho * np.cos(phi) / step, rho * np.sin(phi) / step, height * top / step]])
        try:
            cfg = from_dict(data)
        except ConfigError as exc:
            assert str(exc).startswith("experiment.offsets: point 0")
            return
        # every document load accepts builds its plan without a packing error
        ReconstructionPlan(cfg.geometry, cfg.kernel, cfg.noise, cfg.points)

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
        # a direct call names its caller
        assert [w.filename for w in caught if "smoothness" in str(w.message)] == [__file__]

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

    def test_override_is_an_edit(self, tmp_path):
        # an override stands in for the file's value before validation, so a
        # file that says 1 loads with --realizations 64, as an edit to 64 would
        data = base_config()
        data["experiment"]["realizations"] = 1
        path = write_config(tmp_path, data)
        assert load_config(path, realizations=64).realizations == 64
        with pytest.raises(ConfigError, match="experiment.realizations"):
            load_config(path, seed=3)
        # a document without the section still fails at the section's path
        del data["noise"]
        with pytest.raises(ConfigError, match="noise: missing required field"):
            load_config(write_config(tmp_path, data), seed=3)
        (tmp_path / "list.json").write_text("[]")
        with pytest.raises(ConfigError, match="top level: expected a JSON object"):
            load_config(str(tmp_path / "list.json"), seed=3, realizations=64)

    def test_document_keeps_every_schema_field(self, monkeypatch, tmp_path):
        # a field that only SCHEMA and from_dict know must still reach the
        # manifest and survive --seed and --realizations overrides
        monkeypatch.setitem(config.SCHEMA["checks"].valid, "probe",
                            config.Field(1, config._integer(1), "an integer >= 1"))
        data = base_config()
        data["checks"] = {"probe": 7}
        cfg = from_dict(data)
        assert cfg.to_dict()["checks"] == {
            "ellipse_samples": 10000, "hessian_points": [[2.7, -3.1, 0.8]],
            "hessian_resolution": 2000, "degeneracy_samples": 20000, "probe": 7}
        path = write_config(tmp_path, data)
        assert load_config(path, seed=3).to_dict()["checks"]["probe"] == 7
        # the copy is the caller's own
        cfg.to_dict()["checks"]["probe"] = 8
        assert cfg.to_dict()["checks"]["probe"] == 7

    @pytest.mark.parametrize("command", ["predict", "check", "simulate"])
    @pytest.mark.parametrize("field", list(RETIRED_FIELDS))
    def test_constant_is_no_document_field(self, tmp_path, capsys, command, field):
        # a retired field is a constant of the code; a document that still sets one is refused
        with open(preset_path("ci")) as fh:
            data = json.load(fh)
        section, _, key = field.partition(".")
        if key:
            data.setdefault(section, {})[key] = RETIRED_FIELDS[field]
        else:
            data[section] = RETIRED_FIELDS[field]
        out = tmp_path / "o"
        assert cli.main([command, "--config", write_config(tmp_path, data),
                         "--out", str(out)]) == 2
        named = field if section in config.SCHEMA else section
        assert f"configuration error: {named}: unknown field" in capsys.readouterr().err
        assert not out.exists()
        assert (ExperimentConfig.panels, ExperimentConfig.tolerance, ExperimentConfig.bins,
                ConeBeamGeometry.admissible_fraction) == (2000, 1e-4, 21, 0.9)

    def test_readme_names_every_field_and_rule(self):
        # README says SCHEMA and ASSERTION_RULES are the single source of its
        # configuration tables; its Configuration section must keep up with them
        text = (Path(SRC).parent / "README.md").read_text()
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]

        def fields(schema):
            # the assertions section's fields are the rules, named command.rule
            for name, spec in schema.items():
                yield name
                if isinstance(spec.valid, dict) and name != "assertions":
                    yield from fields(spec.valid)

        rules = [f"{command}.{name}" for command, table in ASSERTION_RULES.items()
                 for name in table]
        missing = [name for name in [*fields(config.SCHEMA), *rules]
                   if f"`{name}`" not in section]
        assert missing == []
        # a retired field is not listed, by its own name, among the fields
        assert [f for f in RETIRED_FIELDS if f"`{f.rpartition('.')[2]}`" in section] == []


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

    def test_check_names_what_it_measures_off_the_source_plane(self, tmp_path):
        # on the rotation axis every direction is degenerate, yet x3 != 0
        data = base_config()
        data["checks"] = {"ellipse_samples": 100, "hessian_points": [[0.0, 0.0, 0.8]],
                          "hessian_resolution": 1000}
        path = write_config(tmp_path, data)
        out = tmp_path / "axis"
        assert cli.main(["check", "--config", path, "--out", str(out)]) == 0
        entry = json.loads((out / "checks.json").read_text())["hessian_scans"][0]
        assert entry["degenerate"] is True and len(entry["root_counts"]) == 8
        assert entry["message"].startswith(
            "projection Hessian vanishes identically along directions [[")
        assert entry["message"].endswith("]]") and "x3" not in entry["message"]

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["predict", "--config", str(path),
                         "--out", str(tmp_path / "x")]) == 2

    def test_numerical_error_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ExperimentConfig, "panels", 1)
        monkeypatch.setattr(ExperimentConfig, "tolerance", 1e-300)
        path = write_config(tmp_path, base_config())
        assert cli.main(["predict", "--config", path,
                         "--out", str(tmp_path / "n")]) == 3

    def test_simulate_fails_before_monte_carlo(self, tmp_path, monkeypatch):
        def reconstruct(*args, **kwargs):
            raise AssertionError("reconstruct ran before the prediction failed")

        monkeypatch.setattr(ReconstructionPlan, "reconstruct", reconstruct)
        monkeypatch.setattr(ExperimentConfig, "panels", 1)
        monkeypatch.setattr(ExperimentConfig, "tolerance", 1e-300)
        path = write_config(tmp_path, base_config())
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "n")]) == 3

    # main catches ValueError, which the other two subclass
    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError,
                                       DegenerateProjectionError], ids=lambda e: e.__name__)
    def test_numerical_error_writes_no_file(self, tmp_path, monkeypatch, error):
        dimensions = []

        def gaussian_on_bins(mean, cov, histogram, original=cli.gaussian_on_bins):
            dimensions.append(histogram.ndim)
            if histogram.ndim == 2:
                raise error("planted after the 1-D histograms")
            return original(mean, cov, histogram)

        monkeypatch.setattr(cli, "gaussian_on_bins", gaussian_on_bins)
        out = tmp_path / "n"
        assert cli.main(["simulate", "--config", str(preset_path("ci")), "--out", str(out),
                         "--realizations", "64"]) == 3
        assert dimensions == [1, 1, 1, 2]
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
        # every configured point passes the geometry's cylinder rule at load:
        # beyond the trajectory, and inside it but beyond 0.9 R
        pytest.param("check", "checks.hessian_points",
                     {"checks": {"hessian_points": [[20.0, 0.0, 1.0]]}}, None, id="hessian-20"),
        pytest.param("check", "checks.hessian_points",
                     {"checks": {"hessian_points": [[9.5, 0.0, 1.0]]}}, None, id="hessian-9.5"),
        pytest.param("predict", "experiment.center", {"experiment": dict(
            base_config()["experiment"], center=[9.5, 0.0, 0.8])}, None, id="center-9.5"),
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

    @pytest.mark.parametrize("command", ["predict", "check", "simulate"])
    @pytest.mark.parametrize("offset,step,message", [
        ([0.0, 0.0, 2e6], 0.05, "point 0's detector footprint reaches index 3.396e+06"),
        ([0.0, 0.0, 1e308], 10, "point 0 has a non-finite coordinate: [2.7, -3.1, inf]"),
    ], ids=["x3-1e5", "x3-inf"])
    def test_point_beyond_packing_range_exits_2(self, tmp_path, capsys, command, offset, step,
                                                message):
        # ci.json with one far offset: load refuses it for every command, since
        # the plan packs detector indices in 21 bits
        with open(preset_path("ci")) as fh:
            data = json.load(fh)
        data["experiment"].update(offsets=[offset, [0.0, 0.0, 0.0]], detector_step=step)
        out = tmp_path / "o"
        assert cli.main([command, "--config", write_config(tmp_path, data),
                         "--out", str(out)]) == 2
        assert f"experiment.offsets: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", [
        ("geometry", "radius"), ("experiment", "detector_step"), ("experiment", "center", 2),
        ("experiment", "offsets", 0, 1), ("checks", "covariance_scan", "radii", 0),
        ("assertions", "simulate", "variance_rel"), ("assertions", "predict", "variance", 1),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, path):
        # JSON reads 1 followed by 400 zeros as an exact int that no float holds
        data = base_config()
        data.update(checks={"covariance_scan": {"direction": [1.0, 0.0, 0.0], "radii": [0.0]}},
                    assertions={"simulate": {"variance_rel": 0.08},
                                "predict": {"variance": [0.485, 0.002]}})
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        target[key] = 10**400
        out = tmp_path / "o"
        assert cli.main(["predict", "--config", write_config(tmp_path, data),
                         "--out", str(out)]) == 2
        field = ".".join(step for step in path if isinstance(step, str))
        assert f"{field}: expected" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_views", [10**12, 10**400, 2**21 + 1],
                             ids=["1e12", "1e400", "2^21+1"])
    def test_view_count_beyond_packing_range_exits_2(self, tmp_path, capsys, n_views):
        # the plan packs the view index in 21 bits; 10^12 views made load
        # allocate 7.28 TiB of view angles and 10^400 overflowed np.arange,
        # each a traceback and exit 1
        data = base_config()
        data["experiment"]["n_views"] = n_views
        out = tmp_path / "o"
        assert cli.main(["predict", "--config", write_config(tmp_path, data),
                         "--out", str(out)]) == 2
        assert "experiment.n_views: expected" in capsys.readouterr().err
        assert not out.exists()
        assert config.SCHEMA["experiment"].valid["n_views"].valid(2**21)

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
         ["numpy.ma", "numpy.random", "concurrent.futures", "logging"]),
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

    def test_smoothness_warning_names_config_file(self, tmp_path):
        # the location printed is the loaded document's kernel.exponent
        # line, not a line of the library
        path = tmp_path / "ci.json"
        path.write_bytes(preset_path("ci").read_bytes())
        line = next(n for n, text in enumerate(path.read_text().splitlines(), 1)
                    if '"exponent"' in text)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = SRC
        result = subprocess.run(
            [sys.executable, "-m", "grf_tomo.cli", "predict", "--config", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stderr.startswith(
            f"{path}:{line}: UserWarning: kernel.exponent: smoothness"), result.stderr
        assert "grf_tomo" not in result.stderr, result.stderr

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


# sha256 of the simulate outputs for ci.json with a single offset and no
# assertions, at --realizations 256 --threads 2: no pair, so no hist2d.csv
GOLDEN_SIMULATE_SINGLE = {
    (0.0, 0.0, 0.0): {
        "stats.json": "3353640a13c021eecdd34ce4ae04e378a93e9f208b5c8434adc8ddbf903578d0",
        "hist1d_0.csv": "9c66f70b912384f24cf3e791f6319677077a673047b020e68093477514a28ed8",
    },
    (2.546, -2.974, 0.983): {
        "stats.json": "b99ec816fbd94c98a0adbc116ef0f0da6d3e204295f404aee59976137c878c64",
        "hist1d_0.csv": "09ff01b7cb879412cb89df1e236d90a80908b406c9da57931bc821a915d384c8",
    },
}


@pytest.mark.parametrize("offset", list(GOLDEN_SIMULATE_SINGLE), ids=["zero", "nonzero"])
def test_golden_simulate_single_offset(tmp_path, offset):
    with open(preset_path("ci")) as fh:
        data = json.load(fh)
    data["experiment"]["offsets"] = [list(offset)]
    del data["assertions"]
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", write_config(tmp_path, data), "--out", str(out),
                     "--realizations", "256", "--threads", "2"]) == 0
    golden = GOLDEN_SIMULATE_SINGLE[offset]
    assert sorted(p.name for p in out.iterdir()) == sorted([*golden, "manifest.json"])
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in golden} == golden
    metrics = json.loads((out / "stats.json").read_text())["metrics"]
    assert metrics["pdf_mismatch_2d"] is None
    assert metrics["zero_offset_index"] == (0 if not any(offset) else None)
    assert_manifest_lists_outputs(out)


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
