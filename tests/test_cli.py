"""Command-line surface: subcommands, file formats, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dptool
from dptool import cli
from dptool import exponents as ex
from dptool import grid as g
from dptool import maximal as mx
from dptool import truncation as tr
from dptool.cli import main
from dptool.dpgrid_io import load_grid, read_dpgrid, write_dpgrid
from dptool.reporting import diff
from dptool.weights import Weight


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

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_dimension_below_two_is_named(self, sample_files, capsys, n):
        """n = 0 used to end in "float division by zero"; a dimension below
        the paper's n >= 2 fails that validation item instead."""
        doc = {**json.loads((sample_files / "cfg.json").read_text()), "n": n}
        (sample_files / "bad.json").write_text(json.dumps(doc))
        rc = main(["exponents", "--config", str(sample_files / "bad.json")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.err == ""
        out = json.loads(captured.out)
        assert out["status"] == "invalid" and "n >= 2" in [c["name"] for c in out["failed"]]

    def test_infinite_first_order_exponent_is_named(self, sample_files, capsys):
        doc = {**json.loads((sample_files / "cfg.json").read_text()), "s": {"p": [float("inf"), 4.0],
                                                                          "q": ["inf", "inf"]}}
        (sample_files / "bad.json").write_text(json.dumps(doc))
        rc = main(["exponents", "--config", str(sample_files / "bad.json")])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["status"] == "invalid" and [c["name"] for c in out["failed"]] == ["s_p,1 = inf"]

    @pytest.mark.parametrize("doc", [{"s": {"p": [None, 2]}}, {"n": None}, [1, 2], {"s": [1, 2]},
                                     {"n": 2.7}, {"m": True}, {"alpha": True}])
    @pytest.mark.parametrize("command", ["exponents", "truncate"])
    def test_malformed_config_exits_2(self, sample_files, capsys, doc, command):
        """A null in a sequence, a null scalar, a top-level list, a list for
        s, a fraction for n and a boolean for m or alpha: one error line and
        exit 2, through both readers of a config; a bad value is named."""
        named = [key for key in ("n", "m", "alpha") if isinstance(doc, dict) and doc.get(key) is not None]
        if isinstance(doc, dict):
            doc = {**json.loads((sample_files / "cfg.json").read_text()), **doc}
        (sample_files / "bad.json").write_text(json.dumps(doc))
        argv = {"exponents": ["exponents"],
                "truncate": ["truncate", "--u", str(sample_files / "f.dpgrid"), "--a", str(sample_files / "a.dpgrid"),
                             "--ball", "0,0,0.5", "--output", str(sample_files / "out.dpgrid")]}[command]
        rc = main(argv + ["--config", str(sample_files / "bad.json")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (sample_files / "out.dpgrid").exists()
        assert all(f"config value {key} must be a" in captured.err for key in named)


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

    def test_regularize_diverging_weight_exits_1(self, tmp_path, capsys):
        # the weights suite's step weight, which diverges under refinement at alpha 1.5
        step = g.create_grid(g.box([-1.0], [1.0]), 256, lambda p: (p[:, 0] > 0).astype(float))
        write_dpgrid(tmp_path / "step.dpgrid", step)
        rc = main(["regularize", "--input", str(tmp_path / "step.dpgrid"), "--alpha", "1.5",
                   "--output", str(tmp_path / "out.dpgrid")])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["status"] == "diverging"
        assert not (tmp_path / "out.dpgrid").exists()

    def test_truncate_report_matches_library(self, sample_files):
        # a one-cell spike puts the gauge G past the level on one cell
        b, h = g.box([-1.0, -1.0], [1.0, 1.0]), 2.0 / 64
        u = g.create_grid(b, 64, lambda p: 1e6 * np.exp(-np.sum((p - h / 2) ** 2, axis=1) / (2 * (h / 2) ** 2)))
        a = g.create_grid(b, 64, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
        write_dpgrid(sample_files / "u.dpgrid", u)
        write_dpgrid(sample_files / "a64.dpgrid", a)
        report = sample_files / "r.json"
        rc = main(["truncate", "--u", str(sample_files / "u.dpgrid"), "--a", str(sample_files / "a64.dpgrid"),
                   "--config", str(sample_files / "cfg.json"), "--ball", "0,0,0.25",
                   "--output", str(sample_files / "out.dpgrid"), "--report", str(report)])
        assert rc == 0
        cfg = ex.ExponentConfig.from_json(sample_files / "cfg.json")
        res = tr.truncate(u, Weight(a=a, alpha=cfg.alpha), cfg, ex.derive(cfg),
                          tr.TruncationConfig(center=np.zeros(2), R=0.25))
        bounds = tr.derivative_bounds_report(res)
        assert res.bad_mask.any() and bounds
        assert json.loads(report.read_text()) == {
            "lambda": res.lam, "lambda0": res.lambda0, "balls": len(res.cover), "bad_cells": int(res.bad_mask.sum()),
            "derivative_bounds": {str(k): v for k, v in bounds.items()},
        }
        assert read_dpgrid(sample_files / "out.dpgrid").values.tobytes() == res.v_lambda.values.tobytes()

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

    def test_gehring_verify_passes(self, tmp_path, capsys):
        b = g.box([-1.0, -1.0], [1.0, 1.0])
        write_dpgrid(tmp_path / "f1.dpgrid", g.create_grid(b, 64, lambda p: np.full(len(p), 2.0)))
        write_dpgrid(tmp_path / "f2.dpgrid", g.create_grid(b, 64, lambda p: np.zeros(len(p))))
        rc = main(["gehring", "--verify", "--f1", str(tmp_path / "f1.dpgrid"), "--f2", str(tmp_path / "f2.dpgrid"),
                   "--A", "1", "--kappa", "0.5", "--eps0", "0.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["pairs", "premise_failures", "premise_pass_fraction", "A_required_max",
                             "conclusion_constant", "eps", "mode"]
        assert doc["pairs"] > 1 and doc["premise_failures"] == 0 and doc["mode"] == "all"

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
        b"{not json\n" + np.zeros(9).tobytes(),
        _dpgrid_bytes(magic="DPGRIX"),
        _dpgrid_bytes(n=2.0),
        _dpgrid_bytes(dims=[1, 9]),
        _dpgrid_bytes(components=0),
        _dpgrid_bytes(origin=["0", 0.0]),
    ], ids=["header-not-object", "dims-null", "nan-origin", "inf-spacing",
            "trailing-bytes", "truncated", "huge-dims", "header-not-json", "wrong-magic",
            "n-not-integer", "dims-below-2", "components-0", "origin-string"])
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
        ["maximal", "--input", "{ok}", "--restrict", "box:0,0,1", "--output", "{out}"],
        ["gehring", "--verify", "--f1", "{ok}"],
        # the lattice's cell centers are 0.25, 0.75 and 1.25 per axis
        ["polyfit", "--input", "{ok}", "--ball", "0.5,0.5,0.1", "--weight", "{ok}", "--order", "1",
         "--center", "0.5,0.5"],
        ["regularize", "--input", "{two}", "--alpha", "0.5", "--output", "{out}"],
    ], ids=["iterate-0", "iterate-negative", "gehring-n-0", "polyfit-order-0", "gehring-5-pow-n-overflow",
            "gehring-c-star-overflow", "ball-nan-center", "ball-negative-radius", "grid-size-0",
            "restrict-box", "gehring-verify-without-f2", "polyfit-empty-ball", "regularize-two-components"])
    def test_out_of_range_parameter_exits_2(self, tmp_path, capsys, argv):
        (tmp_path / "ok.dpgrid").write_bytes(_dpgrid_bytes())
        ok = read_dpgrid(tmp_path / "ok.dpgrid")
        write_dpgrid(tmp_path / "two.dpgrid", ok.with_values(ok.cell_centers()))  # two components
        paths = {"ok": tmp_path / "ok.dpgrid", "two": tmp_path / "two.dpgrid", "out": tmp_path / "out.dpgrid"}
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

    def test_truncate_negative_weight_exits_2(self, sample_files, capsys):
        f = read_dpgrid(sample_files / "f.dpgrid")
        write_dpgrid(sample_files / "neg.dpgrid", f.with_values(-f.values))
        out = sample_files / "out.dpgrid"
        rc = main(["truncate", "--u", str(sample_files / "f.dpgrid"), "--a", str(sample_files / "neg.dpgrid"),
                   "--config", str(sample_files / "cfg.json"), "--ball", "0,0,0.5", "--output", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: weight samples must be nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["truncate", "residual"])
    def test_weight_on_another_lattice_exits_2(self, sample_files, capsys, command):
        coarse = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 48, lambda p: np.ones(len(p)))
        write_dpgrid(sample_files / "w48.dpgrid", coarse)
        f, out = str(sample_files / "f.dpgrid"), sample_files / "out.dpgrid"
        zero = read_dpgrid(f)
        write_dpgrid(sample_files / "phi.dpgrid", zero.with_values(np.zeros_like(zero.values)))
        argv = {"truncate": ["--config", str(sample_files / "cfg.json"), "--ball", "0,0,0.5", "--output", str(out)],
                "residual": ["--phi", str(sample_files / "phi.dpgrid"), "--p", "2.0", "--q", "2.2"]}[command]
        rc = main([command, "--u", f, "--a", str(sample_files / "w48.dpgrid"), *argv])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: weight must live on the same lattice\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", [1, 3])
    def test_truncate_config_dimension_must_match_the_grid(self, sample_files, capsys, n):
        doc = {**json.loads((sample_files / "cfg.json").read_text()), "n": n}
        (sample_files / "cfg_n.json").write_text(json.dumps(doc))
        rc = main(["truncate", "--u", str(sample_files / "f.dpgrid"), "--a", str(sample_files / "a.dpgrid"),
                   "--config", str(sample_files / "cfg_n.json"), "--ball", "0,0,0.5",
                   "--output", str(sample_files / "out.dpgrid")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: config dimension n = {n} differs from the grid's dimension 2\n"
        assert not (sample_files / "out.dpgrid").exists()

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

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_is_named(self, sample_files, capsys, alpha):
        rc = main(["regularize", "--input", str(sample_files / "a.dpgrid"), f"--alpha={alpha}",
                   "--output", str(sample_files / "out.dpgrid")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: alpha must be finite and positive") and err.count("\n") == 1
        assert not (sample_files / "out.dpgrid").exists()

    @pytest.mark.parametrize("mult", ["nan", "inf", "-inf"])
    def test_non_finite_truncation_level_exits_2(self, sample_files, capsys, mult):
        rc = main(["truncate", "--u", str(sample_files / "f.dpgrid"), "--a", str(sample_files / "a.dpgrid"),
                   "--config", str(sample_files / "cfg.json"), "--ball", "0,0,0.5", f"--lambda-mult={mult}",
                   "--output", str(sample_files / "out.dpgrid"), "--report", str(sample_files / "r.json")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: level ") and captured.err.count("\n") == 1
        assert not (sample_files / "out.dpgrid").exists() and not (sample_files / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["maximal", "--input", "{big}", "--output", "{out}"],
        ["riesz", "--input", "{big}", "--gamma", "0.5", "--ball", "0,0,1", "--output", "{out}"],
        ["polyfit", "--input", "{big}", "--ball", "0,0,1", "--weight", "{big}", "--order", "1", "--center", "0,0"],
        ["regularize", "--input", "{big}", "--alpha", "1e308", "--output", "{out}"],
    ], ids=["maximal", "riesz", "polyfit", "regularize"])
    def test_overflow_on_finite_samples_exits_2(self, tmp_path, capsys, argv):
        # finite samples near the float64 maximum overflow inside the operators
        big = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 4, lambda p: np.full(len(p), 1.7e308))
        write_dpgrid(tmp_path / "big.dpgrid", big)
        paths = {"big": tmp_path / "big.dpgrid", "out": tmp_path / "out.dpgrid"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not paths["out"].exists()

    @staticmethod
    def _lattice_csv(path, coords):
        rows = [f"{float(x)!r},{float(y)!r},1.0" for x in coords for y in coords]
        path.write_text("\n".join(["x0,x1,v", *rows]) + "\n")

    @pytest.mark.parametrize("coords,argv,named", [
        (np.linspace(-7.5e307, 7.5e307, 4), ["regularize", "--alpha", "0.5"], "lattice extent"),
        (np.linspace(-1e120, 1e120, 4), ["regularize", "--alpha", "3"], "lattice extent"),
        ((np.arange(4) + 0.5) * 1e-200, ["riesz", "--gamma", "1", "--ball", "2e-200,2e-200,1e-200"], "spacing"),
    ], ids=["regularize-squared-extent", "regularize-extent-to-alpha", "riesz-cell-volume-underflow"])
    def test_lattice_out_of_float_range_is_named(self, tmp_path, capsys, coords, argv, named):
        self._lattice_csv(tmp_path / "in.csv", coords)
        rc = main([argv[0], "--input", str(tmp_path / "in.csv"), *argv[1:], "--output", str(tmp_path / "out.dpgrid")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named} ") and captured.err.count("\n") == 1
        assert not (tmp_path / "out.dpgrid").exists()

    @pytest.mark.parametrize("coords,radius", [
        (np.linspace(-7.5e307, 7.5e307, 4), "1e307"),
        (np.linspace(-7.5e160, 7.5e160, 4), "1e160"),
    ], ids=["extent-overflows", "squared-extent-overflows"])
    def test_truncate_names_a_lattice_out_of_float_range(self, sample_files, capsys, coords, radius):
        self._lattice_csv(sample_files / "in.csv", coords)
        out = sample_files / "out.dpgrid"
        rc = main(["truncate", "--u", str(sample_files / "in.csv"), "--a", str(sample_files / "in.csv"),
                   "--config", str(sample_files / "cfg.json"), "--ball", f"0,0,{radius}", "--output", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: lattice extent ") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["maximal"], ["regularize", "--alpha", "0.5"]], ids=["maximal", "regularize"])
    def test_tiny_spacing_still_runs(self, tmp_path, capsys, argv):
        self._lattice_csv(tmp_path / "in.csv", (np.arange(4) + 0.5) * 1e-200)
        rc = main([argv[0], "--input", str(tmp_path / "in.csv"), *argv[1:], "--output", str(tmp_path / "out.dpgrid")])
        assert rc == 0, capsys.readouterr().err
        assert np.all(np.isfinite(read_dpgrid(tmp_path / "out.dpgrid").values))

    @pytest.mark.parametrize("rows", [
        ["x1,c0", "-1e308,1", "1e308,2"],
        ["x1,c0", "-1.7e308,1", "0,2", "1.7e308,3"],
        ["x1,c0", "0,1", "1,2", "3,3"],
    ], ids=["spacing-overflows", "origin-overflows", "non-uniform-spacing"])
    def test_csv_span_past_float_range_names_the_file(self, tmp_path, capsys, rows):
        path = tmp_path / "span.csv"
        path.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(g.GridError, match="span.csv: "):
                load_grid(path)
            rc = main(["maximal", "--input", str(path), "--output", str(tmp_path / "out.dpgrid")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "out.dpgrid").exists()

    @pytest.mark.parametrize("seed", ["-1", "-0x5EED"])
    def test_negative_seed_exits_2(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "exponents", f"--seed={seed}"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

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

    def test_config_flag_is_rejected(self, tmp_path, capsys, monkeypatch):
        """verify reads no config file, so --config is an argparse error
        naming the flag, and no suite runs."""
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "exponents", "--config", str(tmp_path / "cfg.json"),
                  "--report", str(tmp_path / "rep.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_seed_flag_after_subcommand(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "exponents", "--seed", "7",
                   "--report", str(tmp_path / "rep.json")])
        capsys.readouterr()
        assert rc == 0
        assert json.loads((tmp_path / "rep.json").read_text())["config_echo"]["seed"] == 7

    @pytest.mark.parametrize("argv", [
        ["--seed", "7", "verify", "--suite", "exponents"],
        ["--grid-size", "32", "verify", "--suite", "exponents"],
        ["--output-dir", ".", "verify", "--suite", "exponents"],
        ["maximal", "--seed", "1", "--input", "f.dpgrid", "--output", "out.dpgrid"],
    ], ids=["seed-before-verify", "grid-size-before-verify", "output-dir-before-verify", "seed-on-maximal"])
    def test_run_flags_belong_to_verify(self, capsys, monkeypatch, argv):
        """--seed, --grid-size and --output-dir are verify's own flags; given
        before the subcommand or to another command they are a usage error,
        and nothing runs."""
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: dptool")

    def test_grid_size_128_is_the_default_run(self, tmp_path, capsys):
        assert main(["verify", "--suite", "grid", "--report", str(tmp_path / "a.json")]) == 0
        assert main(["verify", "--suite", "grid", "--grid-size", "128", "--report", str(tmp_path / "b.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert json.loads((tmp_path / "a.json").read_text())["config_echo"]["sizes"] == {"1": 256, "2": 128, "3": 48}

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


PARENT_REPORT = Path(__file__).parent / "data" / "report_all_0x5EED_ecd5bd65.json"


class TestBaseline:
    """``verify --baseline OLD.json`` lists on stderr the leaves of the new
    report that differ from OLD's; the report bytes and the exit code are
    those of the run without it."""

    def test_report_against_itself_is_empty(self, tmp_path, capsys):
        doc = json.loads(PARENT_REPORT.read_text())
        assert diff(doc, doc) == []
        main(["verify", "--suite", "exponents", "--report", str(tmp_path / "a.json")])
        capsys.readouterr()
        rc = main(["verify", "--suite", "exponents", "--report", str(tmp_path / "b.json"),
                   "--baseline", str(tmp_path / "a.json")])
        assert rc == 0 and capsys.readouterr().err == ""

    def test_checks_are_keyed_by_name(self):
        old = {"checks": [{"name": "a: x", "status": "pass", "measured": 1.0},
                          {"name": "b", "status": "pass", "measured": 2.0, "bound": 3.0}],
               "constants": {"s": {"k": [1.0, 2.0], "1.1x": 4.0}}}
        assert diff(old, {"constants": old["constants"], "checks": old["checks"][::-1]}) == []
        new = {"checks": [{"name": "b", "status": "fail", "measured": 2.0},
                          {"name": "c", "status": "pass"}],
               "constants": {"s": {"k": [1.0, 2.5], "1.1x": 4.0, "new": True}}}
        assert diff(old, new) == [
            ("moved", 'checks.b.status', "pass", "fail"),
            ("added", 'checks.c.status', None, "pass"),
            ("moved", "constants.s.k[1]", 2.0, 2.5),
            ("added", "constants.s.new", None, True),
            ("removed", 'checks["a: x"].status', "pass", None),
            ("removed", 'checks["a: x"].measured', 1.0, None),
            ("removed", "checks.b.bound", 3.0, None),
        ]

    def test_baseline_leaves_report_bytes_and_exit_code(self, tmp_path, capsys, monkeypatch):
        """A failing run (exit 1) against a report of other suites: the same
        bytes and exit code as without the baseline, and one line per leaf."""
        from dptool import suites
        from dptool.reporting import Check

        exponents = suites._SUITES["exponents"]

        def forced(**kw):
            rep = exponents(**kw)
            rep.add(Check.from_bound("forced bound", 2.5, 1.0))
            return rep

        monkeypatch.setitem(suites._SUITES, "exponents", forced)
        rc = main(["verify", "--suite", "exponents", "--report", str(tmp_path / "plain.json")])
        plain = capsys.readouterr()
        rc_base = main(["verify", "--suite", "exponents", "--report", str(tmp_path / "base.json"),
                        "--baseline", str(PARENT_REPORT)])
        based = capsys.readouterr()
        assert rc == rc_base == 1
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "base.json").read_bytes()
        assert plain.out == based.out
        failed, *lines = based.err.splitlines()
        assert failed + "\n" == plain.err
        want = diff(json.loads(PARENT_REPORT.read_text()), json.loads(plain.out))
        assert len(lines) == len(want) and lines[0] == 'moved: suite: "all" -> "exponents"'
        assert {line.split(": ", 1)[0] for line in lines} == {"moved", "added", "removed"}
        assert 'added: checks["forced bound"].measured: 2.5' in lines

    @pytest.mark.parametrize("text", [None, "", "{not json", "[1, 2]", '{"checks": 3}'],
                             ids=["missing", "empty", "not-json", "not-an-object", "checks-not-a-list"])
    def test_bad_baseline_exits_2(self, tmp_path, capsys, monkeypatch, text):
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
        baseline = tmp_path / "old.json"
        if text is not None:
            baseline.write_text(text)
        rc = main(["verify", "--suite", "exponents", "--report", str(tmp_path / "r.json"),
                   "--baseline", str(baseline)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()


class TestWorkBudget:
    """Work past a documented budget is an input error, rejected before the
    run allocates anything.  Only rejected values reach the real operators;
    the values at the budget run against stubs, so no test starts a long run."""

    @staticmethod
    def _input(tmp_path, cells):
        """A 1-D grid file of ``cells`` cells."""
        write_dpgrid(tmp_path / "in.dpgrid", g.create_grid(g.box([0.0], [1.0]), cells, lambda p: p[:, 0]))
        return str(tmp_path / "in.dpgrid")

    # a lattice below the floor counts as PASS_FLOOR_CELLS cells per pass
    @pytest.mark.parametrize("cells,iterate", [(9, cli.MAX_CELL_ITERATIONS // cli.PASS_FLOOR_CELLS + 1), (9, 10**8),
                                               (4096, cli.MAX_CELL_ITERATIONS // 4096 + 1)])
    def test_maximal_iterate_past_the_budget_exits_2(self, tmp_path, capsys, monkeypatch, cells, iterate):
        ran = []
        monkeypatch.setattr(mx, "maximal_stack", lambda *args: ran.append(args))
        rc = main(["maximal", "--input", self._input(tmp_path, cells), "--iterate", str(iterate),
                   "--output", str(tmp_path / "out.dpgrid")])
        captured = capsys.readouterr()
        assert rc == 2 and ran == []
        assert captured.out == ""
        assert captured.err.startswith("error: --iterate") and captured.err.count("\n") == 1
        assert not (tmp_path / "out.dpgrid").exists()

    @pytest.mark.parametrize("cells,iterate", [(9, cli.MAX_CELL_ITERATIONS // cli.PASS_FLOOR_CELLS),
                                               (4096, cli.MAX_CELL_ITERATIONS // 4096)])
    def test_maximal_iterate_at_the_budget_is_accepted(self, tmp_path, capsys, monkeypatch, cells, iterate):
        specs = []
        monkeypatch.setattr(mx, "maximal_function", lambda f, spec: specs.append(spec) or f)
        rc = main(["maximal", "--input", self._input(tmp_path, cells),
                   "--iterate", str(iterate), "--output", str(tmp_path / "out.dpgrid")])
        assert rc == 0 and capsys.readouterr().err == ""
        assert [s.iterations for s in specs] == [iterate]

    # the largest padded shape of 1024^2 is 2048^2 complex cells, 67,108,864
    # bytes, the budget itself; of 1025^2, 2160^2, 74,649,600 bytes; of 80^3
    # and 81^3, 160^3 and 162^3, 65,536,000 and 68,024,448 bytes; of 2 x 1025
    # and 1025 x 2, 3 x 2160 and 2160 x 3, 103,680 bytes, as each axis pads
    # only by the disc's reach clipped to that axis
    @pytest.mark.parametrize("dims,admitted", [((1024, 1024), True), ((1025, 1025), False),
                                               ((80, 80, 80), True), ((81, 81, 81), False),
                                               ((2, 1025), True), ((1025, 2), True)])
    def test_maximal_spectrum_budget_edge(self, tmp_path, capsys, monkeypatch, dims, admitted):
        ran = []
        monkeypatch.setattr(mx, "maximal_function", lambda f, spec: ran.append(spec) or f)
        monkeypatch.setattr(mx, "maximal_stack", lambda *args: ran.append(args))
        write_dpgrid(tmp_path / "in.dpgrid", g.create_grid(g.box([0.0] * len(dims), dims), dims,
                                                           lambda p: p[:, -1]))
        rc = main(["maximal", "--input", str(tmp_path / "in.dpgrid"), "--output", str(tmp_path / "out.dpgrid")])
        captured = capsys.readouterr()
        assert captured.out == ""
        if admitted:
            assert rc == 0 and captured.err == "" and len(ran) == 1
        else:
            assert rc == 2 and ran == []
            assert captured.err.startswith("error: largest padded spectrum") and captured.err.count("\n") == 1
            assert not (tmp_path / "out.dpgrid").exists()

    # 376 is the least size whose 3-D suite lattice, 141^3 cells of 3
    # components, passes 64 MiB; 375 gives 140^3 cells
    @pytest.mark.parametrize("size", [376, 10**8])
    def test_verify_grid_size_past_the_budget_exits_2(self, tmp_path, capsys, monkeypatch, size):
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kw: ran.append(args))
        rc = main(["verify", "--suite", "all", "--grid-size", str(size), "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2 and ran == []
        assert captured.out == ""
        assert captured.err.startswith("error: --grid-size") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_verify_grid_size_at_the_budget_is_accepted(self, tmp_path, capsys, monkeypatch):
        seen = []
        run_suite = cli.run_suite

        def exponents_only(name, sizes, seed):
            seen.append(sizes)
            return run_suite("exponents", seed=seed, sizes=sizes)

        monkeypatch.setattr(cli, "run_suite", exponents_only)
        rc = main(["verify", "--suite", "all", "--grid-size", "375", "--report", str(tmp_path / "r.json")])
        assert rc == 0 and capsys.readouterr().err == ""
        assert seen == [{1: 750, 2: 375, 3: 140}]
        assert 140**3 * 3 * 8 <= cli.MAX_FIELD_BYTES < 141**3 * 3 * 8


class TestReportDirectory:
    """A report whose directory is missing is an input error, caught before any work."""

    @pytest.mark.parametrize("target", [["--output-dir", "{tmp}/missing"], ["--report", "{tmp}/missing/r.json"],
                                        ["--report", "{tmp}"]], ids=["output-dir", "report", "report-is-a-directory"])
    def test_verify_checks_the_report_directory_first(self, tmp_path, capsys, monkeypatch, target):
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kw: ran.append(args))
        rc = main(["verify", "--suite", "all"] + [arg.format(tmp=tmp_path) for arg in target])
        captured = capsys.readouterr()
        assert rc == 2 and ran == []
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_truncate_checks_the_report_directory_first(self, sample_files, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(tr, "truncate", lambda *args, **kw: ran.append(args))
        rc = main(["truncate", "--u", str(sample_files / "f.dpgrid"), "--a", str(sample_files / "a.dpgrid"),
                   "--config", str(sample_files / "cfg.json"), "--ball", "0,0,0.5",
                   "--output", str(sample_files / "out.dpgrid"), "--report", str(sample_files / "missing" / "r.json")])
        captured = capsys.readouterr()
        assert rc == 2 and ran == []
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (sample_files / "out.dpgrid").exists()


def test_cli_commands_load_no_scipy(sample_files):
    """A cold start imports numpy alone: verify-all and the grid commands,
    through ``cli.main`` in one fresh interpreter, load no scipy module,
    and no ``multiprocessing`` or ``concurrent`` one: verify-all's worker
    processes are forked with ``os`` alone."""
    mask = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 32,
                         lambda p: (np.linalg.norm(p, axis=1) < 0.5).astype(float))
    write_dpgrid(sample_files / "mask.dpgrid", mask)
    f, a, cfg = (str(sample_files / name) for name in ("f.dpgrid", "a.dpgrid", "cfg.json"))
    runs = [
        ["verify", "--suite", "all", "--output-dir", str(sample_files)],
        ["whitney", "--mask", str(sample_files / "mask.dpgrid"), "--output", str(sample_files / "cover.json"),
         "--verify"],
        ["maximal", "--input", f, "--beta", "0.5", "--output", str(sample_files / "Mf.dpgrid")],
        ["riesz", "--input", f, "--gamma", "1.0", "--ball", "0,0,1", "--output", str(sample_files / "If.dpgrid")],
        ["truncate", "--u", f, "--a", a, "--config", cfg, "--ball", "0,0,0.5",
         "--output", str(sample_files / "vt.dpgrid"), "--report", str(sample_files / "trunc.json")],
    ]
    code = ("import json, sys; from dptool.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent'))]))")
    src = str(Path(dptool.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=sample_files)
    assert res.returncode == 0, res.stderr[-2000:]
    codes, loaded = json.loads(res.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert loaded == []
