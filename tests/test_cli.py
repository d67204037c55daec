"""Command-line surface: subcommands, file formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dptool
from dptool import grid as g
from dptool.cli import main
from dptool.dpgrid_io import read_dpgrid, write_dpgrid


@pytest.fixture()
def sample_files(tmp_path):
    b = g.box([-1.0, -1.0], [1.0, 1.0])
    f = g.create_grid(b, 32, lambda p: np.exp(-3 * np.sum(p**2, axis=1)))
    a = g.create_grid(b, 32, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
    write_dpgrid(tmp_path / "f.dpgrid", f)
    write_dpgrid(tmp_path / "a.dpgrid", a)
    cfg = {"n": 2, "m": 1, "p": 2.0, "q": 2.2, "alpha": 0.5,
           "s": {"p": ["inf", "inf"], "q": ["inf", "inf"]},
           "t": {"p": ["inf", "inf"], "q": ["inf", "inf"]}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return tmp_path


class TestExponentsCommand:
    def test_valid_config(self, sample_files, capsys):
        rc = main(["exponents", "--config", str(sample_files / "cfg.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta0"] == pytest.approx(1 - 1e-6)
        assert doc["mode"] == "theorem"

    def test_invalid_config_exits_2(self, sample_files, capsys):
        bad = {"n": 2, "m": 1, "p": 2.0, "q": 3.0, "alpha": 0.5}  # gap violated
        (sample_files / "bad.json").write_text(json.dumps(bad))
        rc = main(["exponents", "--config", str(sample_files / "bad.json")])
        assert rc == 2

    def test_missing_file_exits_2(self):
        assert main(["exponents", "--config", "/nonexistent.json"]) == 2


class TestGridCommands:
    def test_maximal_roundtrip(self, sample_files):
        out = sample_files / "Mf.dpgrid"
        rc = main(["maximal", "--input", str(sample_files / "f.dpgrid"),
                   "--beta", "0.5", "--output", str(out)])
        assert rc == 0
        M = read_dpgrid(out)
        f = read_dpgrid(sample_files / "f.dpgrid")
        assert M.dims == f.dims

    def test_maximal_with_restriction(self, sample_files):
        out = sample_files / "MBf.dpgrid"
        rc = main(["maximal", "--input", str(sample_files / "f.dpgrid"),
                   "--restrict", "ball:0,0,0.5", "--output", str(out)])
        assert rc == 0

    def test_riesz(self, sample_files):
        out = sample_files / "If.dpgrid"
        rc = main(["riesz", "--input", str(sample_files / "f.dpgrid"),
                   "--gamma", "1.0", "--ball", "0,0,1", "--output", str(out)])
        assert rc == 0
        assert np.all(read_dpgrid(out).scalar() >= 0)

    def test_regularize(self, sample_files, capsys):
        out = sample_files / "at.dpgrid"
        rc = main(["regularize", "--input", str(sample_files / "a.dpgrid"),
                   "--alpha", "0.5", "--output", str(out)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seminorm_regularized"] <= 2**0.5 + 1e-6

    def test_polyfit(self, sample_files, capsys):
        eta = read_dpgrid(sample_files / "f.dpgrid")
        write_dpgrid(sample_files / "eta.dpgrid", eta.with_values(np.ones(eta.dims)[..., None]))
        rc = main(["polyfit", "--input", str(sample_files / "f.dpgrid"),
                   "--ball", "0,0,0.8", "--weight", str(sample_files / "eta.dpgrid"),
                   "--order", "2", "--center", "0,0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "0,0" in doc["coefficients"]

    def test_whitney(self, sample_files, tmp_path):
        mask = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 32,
                             lambda p: (np.linalg.norm(p, axis=1) < 0.5).astype(float))
        write_dpgrid(sample_files / "mask.dpgrid", mask)
        out = sample_files / "cover.json"
        rc = main(["whitney", "--mask", str(sample_files / "mask.dpgrid"),
                   "--output", str(out), "--verify"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["count"] > 0 and doc["verification"]["W1"]

    def test_gehring_certificate(self, capsys):
        rc = main(["gehring", "--n", "1", "--A", "1", "--kappa", "0.5", "--eps0", "0.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c_star"] == 1000.0 and doc["eps_max"] == 5e-4

    def test_residual(self, sample_files, capsys):
        f = read_dpgrid(sample_files / "f.dpgrid")
        x = f.cell_centers()
        phi = f.with_values(np.prod(np.maximum(0.4 - np.abs(x), 0) ** 2, axis=-1)[..., None])
        write_dpgrid(sample_files / "phi.dpgrid", phi)
        rc = main(["residual", "--u", str(sample_files / "f.dpgrid"),
                   "--a", str(sample_files / "a.dpgrid"),
                   "--phi", str(sample_files / "phi.dpgrid"),
                   "--p", "2.0", "--q", "2.2"])
        assert rc == 0
        assert "residual" in json.loads(capsys.readouterr().out)


def _dpgrid_bytes(**overrides):
    header = {"magic": "DPGRID", "version": 1, "n": 2, "dims": [3, 3], "origin": [0.0, 0.0],
              "spacing": 0.5, "components": 1, **overrides}
    return json.dumps(header).encode() + b"\n" + np.arange(9, dtype="<f8").tobytes()


class TestInputBoundary:
    """Every malformed grid file is an input error: exit 2, one-line message."""

    @pytest.mark.parametrize("data", [
        b"[1,2]\n" + np.zeros(9).tobytes(),
        _dpgrid_bytes(dims=None),
        _dpgrid_bytes(origin=[float("nan"), 0.0]),
        _dpgrid_bytes(spacing=float("inf")),
        _dpgrid_bytes() + b"\0",
        _dpgrid_bytes()[:-1],
        _dpgrid_bytes(dims=[10**9, 10**9]),
    ], ids=["header-not-object", "dims-null", "nan-origin", "inf-spacing",
            "trailing-bytes", "truncated", "huge-dims"])
    def test_malformed_dpgrid_exits_2(self, tmp_path, capsys, data):
        (tmp_path / "bad.dpgrid").write_bytes(data)
        rc = main(["maximal", "--input", str(tmp_path / "bad.dpgrid"), "--output", str(tmp_path / "out.dpgrid")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out.dpgrid").exists()

    @pytest.mark.parametrize("name", ["header-only.csv", "directory.dpgrid"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        if name.endswith(".csv"):
            path.write_text("x1,c0\n")
        else:
            path.mkdir()
        rc = main(["maximal", "--input", str(path), "--output", str(tmp_path / "out.dpgrid")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out.dpgrid").exists()

    @pytest.mark.parametrize("argv", [
        ["maximal", "--input", "{ok}", "--iterate", "0", "--output", "{out}"],
        ["maximal", "--input", "{ok}", "--iterate", "-3", "--output", "{out}"],
        ["gehring", "--n", "0"],
        ["polyfit", "--input", "{ok}", "--ball", "0.5,0.5,1", "--weight", "{ok}", "--order", "0",
         "--center", "0.5,0.5"],
        ["gehring", "--n", "500"],
        ["gehring", "--A", "1e200", "--eps0", "1"],
        ["maximal", "--input", "{ok}", "--restrict", "ball:nan,0,1", "--output", "{out}"],
        ["riesz", "--input", "{ok}", "--gamma", "0.5", "--ball", "0,0,-1", "--output", "{out}"],
        ["verify", "--suite", "exponents", "--grid-size", "0", "--report", "{out}"],
    ], ids=["iterate-0", "iterate-negative", "gehring-n-0", "polyfit-order-0", "gehring-5-pow-n-overflow",
            "gehring-c-star-overflow", "ball-nan-center", "ball-negative-radius", "grid-size-0"])
    def test_out_of_range_parameter_exits_2(self, tmp_path, capsys, argv):
        (tmp_path / "ok.dpgrid").write_bytes(_dpgrid_bytes())
        paths = {"ok": tmp_path / "ok.dpgrid", "out": tmp_path / "out.dpgrid"}
        rc = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "out.dpgrid").exists()

    @pytest.mark.parametrize("argv", [
        ["maximal", "--input", "{f}", "--restrict", "ball:0,0", "--output", "{out}"],
        ["maximal", "--input", "{f}", "--restrict", "ball:0,0,0", "--output", "{out}"],
        ["riesz", "--input", "{f}", "--gamma", "0.5", "--ball", "0,0,0", "--output", "{out}"],
        ["riesz", "--input", "{f}", "--gamma", "0.5", "--ball", "0,0,0,1", "--output", "{out}"],
        ["polyfit", "--input", "{f}", "--ball", "0,1", "--weight", "{a}", "--order", "1", "--center", "0,0"],
        ["truncate", "--u", "{f}", "--a", "{a}", "--config", "{cfg}", "--ball", "0,0,0", "--output", "{out}"],
        ["truncate", "--u", "{f}", "--a", "{a}", "--config", "{cfg}", "--ball", "0,0,0,0.5",
         "--output", "{out}"],
    ], ids=["restrict-short-center", "restrict-zero-radius", "riesz-zero-radius", "riesz-long-center",
            "polyfit-short-center", "truncate-zero-radius", "truncate-long-center"])
    def test_ball_argument_checked_against_grid(self, sample_files, capsys, argv):
        paths = {"f": sample_files / "f.dpgrid", "a": sample_files / "a.dpgrid",
                 "cfg": sample_files / "cfg.json", "out": sample_files / "out.dpgrid"}
        rc = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ball ") and captured.err.count("\n") == 1
        assert not paths["out"].exists()

    @pytest.mark.parametrize("weight,center,message", [
        ("w16", "0,0", "error: weight must live on the same lattice"),
        ("x1", "0,0", "error: weight must be nonnegative"),
        ("one", "0,0,0", "error: center "),
        ("one", "0", "error: center "),
        ("one", "0,nan", "error: center "),
    ], ids=["weight-other-lattice", "weight-negative", "center-long", "center-short", "center-nan"])
    def test_polyfit_weight_and_center_checked(self, sample_files, capsys, weight, center, message):
        f = read_dpgrid(sample_files / "f.dpgrid")
        coarse = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 16, lambda p: np.ones(len(p)))
        fields = {"w16": coarse, "x1": f.with_values(f.cell_centers()[..., :1]),
                  "one": f.with_values(np.ones(f.dims)[..., None])}
        write_dpgrid(sample_files / "w.dpgrid", fields[weight])
        rc = main(["polyfit", "--input", str(sample_files / "f.dpgrid"), "--ball", "0,0,0.8",
                   "--weight", str(sample_files / "w.dpgrid"), "--order", "2", "--center", center])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    def test_gehring_verify_needs_one_lattice(self, sample_files, capsys):
        far = g.create_grid(g.box([5.0, 5.0], [6.0, 6.0]), 8, lambda p: np.ones(len(p)))
        write_dpgrid(sample_files / "far.dpgrid", far)
        rc = main(["gehring", "--verify", "--f1", str(sample_files / "f.dpgrid"), "--f2",
                   str(sample_files / "far.dpgrid"), "--A", "2", "--kappa", "0.5", "--eps0", "0.5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: f1 and f2 must share the lattice\n"

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
    def test_non_finite_beta_is_named(self, tmp_path, capsys, beta):
        (tmp_path / "ok.dpgrid").write_bytes(_dpgrid_bytes())
        rc = main(["maximal", "--input", str(tmp_path / "ok.dpgrid"), f"--beta={beta}",
                   "--output", str(tmp_path / "out.dpgrid")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: fractional order must be finite")

    def test_wellformed_dpgrid_reads(self, tmp_path):
        (tmp_path / "ok.dpgrid").write_bytes(_dpgrid_bytes())
        assert read_dpgrid(tmp_path / "ok.dpgrid").dims == (3, 3)


class TestVerifyCommand:
    def test_exponents_suite_passes(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "exponents",
                   "--report", str(tmp_path / "rep.json")])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["status"] == "pass"
        assert doc["timing_ms"] == 0

    def test_unknown_suite_exits_2(self, capsys):
        rc = main(["verify", "--suite", "nonsense"])
        capsys.readouterr()
        assert rc == 2

    def test_seed_flag_after_subcommand(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "exponents", "--seed", "0x5EED",
                   "--report", str(tmp_path / "rep.json")])
        capsys.readouterr()
        assert rc == 0

    def test_reports_deterministic(self, tmp_path, capsys):
        main(["verify", "--suite", "gehring", "--seed", "0x5EED",
              "--report", str(tmp_path / "a.json")])
        main(["verify", "--suite", "gehring", "--seed", "0x5EED",
              "--report", str(tmp_path / "b.json")])
        capsys.readouterr()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_failed_check_named_on_stderr(self, tmp_path, capsys, monkeypatch):
        from dptool import suites
        from dptool.reporting import Check

        exponents = suites._SUITES["exponents"]

        def forced(**kw):
            rep = exponents(**kw)
            rep.add(Check.from_bound("forced bound", 2.5, 1.0))
            return rep

        monkeypatch.setitem(suites._SUITES, "exponents", forced)
        rc = main(["verify", "--suite", "exponents", "--report", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == (tmp_path / "r.json").read_text()
        assert captured.err == "failed: forced bound: measured 2.5, bound 1\n"

    def test_passing_verify_is_silent_on_stderr(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "exponents", "--report", str(tmp_path / "r.json")])
        assert rc == 0 and capsys.readouterr().err == ""

    def test_float_serialization_17_digits(self, tmp_path, capsys):
        main(["verify", "--suite", "exponents", "--report", str(tmp_path / "r.json")])
        capsys.readouterr()
        text = (tmp_path / "r.json").read_text()
        assert "0.99999899999999997" in text  # delta0 at 17 significant digits


def test_cli_import_leaves_scipy_signal_out():
    """scipy.signal costs about half of a cold start; no dptool command needs it."""
    src = str(Path(dptool.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dptool.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
