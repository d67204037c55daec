"""The benchmark's three workloads.

Each workload has a ``setup(seed_text, workdir, env)`` that builds its
inputs from the seed (``env`` is the environment for any subprocess), a
``run(state)`` that is the timed pass, and a
``check(state, out)`` that returns ``(checks, digest)``: a list of
``(name, ok)`` output checks and a sha256 of everything the pass produced.
The checks depend only on the outputs, never on how fast they came.

The seed text reaches dptool unchanged: ``verify_all`` hands it to the CLI,
and the other workloads seed ``numpy.random.default_rng`` with
``int(seed_text, 0)``, as the CLI's own ``--seed`` parser does, and draw
their fields with ``corpus.fourier_sampler`` as ``corpus.fourier_corpus``
does.  Why each workload exists, and which layers it should and should
not move, is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dptool.cli as cli
from dptool import corpus, dpgrid_io, grid, harness, maximal, potentials, suites, truncation, weights, whitney

SUBPROCESS_TIMEOUT_S = 170


def digest(obj) -> str:
    """sha256 of a nested result: dicts, sequences, arrays and scalars, exact bits."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for val in obj:
            _feed(h, val)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"array{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(f"f{obj.hex()};".encode())
    elif obj is None or isinstance(obj, (bool, int, str, bytes)):
        h.update(f"{type(obj).__name__}{obj!r};".encode())
    else:
        raise TypeError(f"cannot digest {type(obj)!r}")


def same_grid(a: grid.GridFunction, b: grid.GridFunction) -> bool:
    """Bitwise equality of lattice, header fields and samples."""
    return (a.n, a.dims, a.spacing, a.components) == (b.n, b.dims, b.spacing, b.components) \
        and a.origin.tobytes() == b.origin.tobytes() and a.values.tobytes() == b.values.tobytes()


# ---------------------------------------------------------------------------
# verify_all: `dptool verify --suite all --seed S`, in-process through cli.main
# ---------------------------------------------------------------------------


def verify_setup(seed_text: str, workdir, env: dict) -> dict:
    # There are no inputs to build; what every verify run pays first is a
    # fresh interpreter importing the CLI and everything it pulls in.
    subprocess.run([sys.executable, "-c", "import dptool.cli"], env=env, cwd=workdir,
                   check=True, timeout=SUBPROCESS_TIMEOUT_S)
    out_dir = workdir / "verify"
    out_dir.mkdir(exist_ok=True)
    return {"seed_text": seed_text, "dir": out_dir, "env": env}


def _verify_argv(state: dict, out_dir) -> list[str]:
    return ["verify", "--suite", "all", "--seed", state["seed_text"], "--output-dir", str(out_dir)]


def verify_run(state: dict):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(_verify_argv(state, state["dir"]))
    return code, printed.getvalue()


def verify_check(state: dict, out):
    code, printed = out
    data = (state["dir"] / "report_all.json").read_bytes()
    report = json.loads(data)
    checks = [
        ("exit code 0", code == 0),
        ("report status pass", report.get("status") == "pass"),
        ("report echoes the seed", report["config_echo"]["seed"] == int(state["seed_text"], 0)),
        ("printed report equals the written one", printed.encode("utf-8") == data),
    ]
    return checks, hashlib.sha256(data).hexdigest()


def verify_cross_check(state: dict, untraced_digest: str):
    """The in-process report bytes equal a ``dptool verify`` subprocess's."""
    sub_dir = state["dir"] / "subprocess"
    sub_dir.mkdir(exist_ok=True)
    # `python -m dptool.cli` runs what the `dptool` console script runs
    proc = subprocess.run([sys.executable, "-m", "dptool.cli", *_verify_argv(state, sub_dir)],
                          env=state["env"], cwd=sub_dir, stdout=subprocess.DEVNULL, timeout=SUBPROCESS_TIMEOUT_S)
    data = (sub_dir / "report_all.json").read_bytes()
    return [
        ("subprocess exit code 0", proc.returncode == 0),
        ("subprocess report bytes equal in-process", hashlib.sha256(data).hexdigest() == untraced_digest),
    ]


# ---------------------------------------------------------------------------
# field_ops: whole-lattice operators, each input read from and output
# written to DPGRID as the CLI's regularize / maximal / riesz commands do
# ---------------------------------------------------------------------------

WEIGHT_FIELDS = (("weight2", 2, 64), ("weight3", 3, 16))  # rough weights |f|
OPERATOR_FIELDS = (("field2", 2, 256), ("field3", 3, 32))
ALPHA = 0.5  # comparison exponent of the weights
BETA = 1.0  # fractional order of the maximal operator
GAMMA = 1.0  # Riesz order
IDEMPOTENCE_TOL = 1e-10


def field_setup(seed_text: str, workdir, env: dict) -> dict:
    rng = np.random.default_rng(int(seed_text, 0))
    fields = {}
    for name, n, size in WEIGHT_FIELDS + OPERATOR_FIELDS:
        f = grid.create_grid(grid.box([-1.0] * n, [1.0] * n), size, corpus.fourier_sampler(rng, n))
        if name.startswith("weight"):
            f = f.with_values(np.abs(f.values))
        path = workdir / f"{name}.dpgrid"
        dpgrid_io.write_dpgrid(path, f)
        fields[name] = (path, f)
    return {"dir": workdir, "fields": fields}


def field_run(state: dict) -> dict:
    out = {}
    for name, _n, _size in WEIGHT_FIELDS:
        a = dpgrid_io.load_grid(state["fields"][name][0])
        est, div = weights.estimate_seminorm(a, ALPHA)
        at = weights.regularize(a, ALPHA, diverging=div)
        path = state["dir"] / f"{name}_regularized.dpgrid"
        dpgrid_io.write_dpgrid(path, at)
        out[name] = {"input": a, "estimate": est, "diverging": div, "regularized": (at, path)}
    for name, n, _size in OPERATOR_FIELDS:
        f = dpgrid_io.load_grid(state["fields"][name][0])
        mf = maximal.maximal_function(f, maximal.MaximalSpec(beta=BETA, mode="uncentered"))
        mf_path = state["dir"] / f"{name}_maximal.dpgrid"
        dpgrid_io.write_dpgrid(mf_path, mf)
        rf = potentials.riesz_potential(f, potentials.PotentialSpec(gamma=GAMMA, region=grid.ball([0.0] * n, 1.0)))
        rf_path = state["dir"] / f"{name}_riesz.dpgrid"
        dpgrid_io.write_dpgrid(rf_path, rf)
        out[name] = {"input": f, "maximal": (mf, mf_path), "riesz": (rf, rf_path)}
    return out


def field_check(state: dict, out: dict):
    checks = []
    written = []
    for name, res in out.items():
        checks.append((f"{name} input read back bitwise", same_grid(res["input"], state["fields"][name][1])))
        for key in ("regularized", "maximal", "riesz"):
            if key in res:
                g, path = res[key]
                checks.append((f"{name} {key} read back bitwise", same_grid(dpgrid_io.read_dpgrid(path), g)))
                written.append(path.read_bytes())
    for name, _n, _size in WEIGHT_FIELDS:
        a, at = out[name]["input"], out[name]["regularized"][0]
        att = weights.regularize(at, ALPHA, diverging=False)
        checks.append((f"{name} not diverging", not out[name]["diverging"]))
        checks.append((f"{name} regularized <= input", bool(np.all(at.values <= a.values))))
        checks.append((f"{name} regularize idempotent", float(np.abs(att.values - at.values).max()) <= IDEMPOTENCE_TOL))
    for name, _n, _size in OPERATOR_FIELDS:
        f = out[name]["input"]
        mf = out[name]["maximal"][0].scalar()
        rf = out[name]["riesz"][0].scalar()
        checks.append((f"{name} Mf >= (h/2)^beta |f|", bool(np.all(mf >= (f.spacing / 2) ** BETA * np.abs(f.scalar())))))
        checks.append((f"{name} riesz finite and >= 0", bool(np.all(np.isfinite(rf)) and np.all(rf >= 0))))
    estimates = [(out[name]["estimate"], out[name]["diverging"]) for name, _n, _s in WEIGHT_FIELDS]
    return checks, digest([written, estimates])


# ---------------------------------------------------------------------------
# ball_scans: per-ball pipelines on in-memory 2-D inputs
# ---------------------------------------------------------------------------

MASK_SIZE = 160
# Whitney cost grows with the mask's cell count, and random_masks' first mask
# has 0.9k to 12k cells over 42 seeds at this size; so the mask is the
# MASK_CELLS highest interior cells of a seeded Fourier field.
MASK_CELLS = 1000
MASK_INTERIOR = 0.45  # keep the mask off the box walls, as random_masks does
SCAN_SIZE = 96  # self_improve lattice, as suites.suite_pipeline uses
TRUNCATION_SIZE = 128


def ball_setup(seed_text: str, workdir, env: dict) -> dict:
    rng = np.random.default_rng(int(seed_text, 0))
    box = suites.unit_box(2)
    lattice = grid.create_grid(box, MASK_SIZE, corpus.fourier_sampler(rng, 2))
    interior = np.all(np.abs(lattice.cell_centers()) < MASK_INTERIOR, axis=-1)
    ranked = np.argsort(np.where(interior, lattice.scalar(), -np.inf), axis=None, kind="stable")
    mask = np.zeros(lattice.dims, dtype=bool)
    mask.flat[ranked[-MASK_CELLS:]] = True
    u = grid.create_grid(box, SCAN_SIZE, corpus.fourier_sampler(rng, 2))
    a = weights.regularize(suites.power_weight(SCAN_SIZE, 0.5), 0.5, diverging=False)
    u_t, w_t, cfg_t, der_t, tc, data = suites.truncation_fixture(TRUNCATION_SIZE)
    return {
        "lattice": lattice, "mask": mask,
        "u": u, "weight": weights.Weight(a=a, alpha=0.5), "cfg": suites.model_config(),
        "omega": grid.ball([0.0, 0.0], 0.48),
        "truncation": (u_t, w_t, cfg_t, der_t, data),
        "tc": truncation.TruncationConfig(center=tc.center, R=tc.R, lambda_mult=1.1, delta=tc.delta),
    }


def ball_run(state: dict) -> dict:
    cov = whitney.cover(state["lattice"], state["mask"], R=1.0)
    cover_checks = whitney.verify_cover(cov, state["lattice"], state["mask"])
    improved = harness.self_improve(state["u"], state["weight"], state["cfg"], state["omega"], R0=0.1)
    u_t, w_t, cfg_t, der_t, data = state["truncation"]
    res = truncation.truncate(u_t, w_t, cfg_t, der_t, state["tc"], data=data)
    return {
        "cover": cov, "verify_cover": cover_checks, "self_improve": improved, "truncation": res,
        "derivative_bounds": truncation.derivative_bounds_report(res),
        "admissibility": truncation.admissibility_report(res),
    }


def ball_check(state: dict, out: dict):
    vc = out["verify_cover"]
    improved = out["self_improve"]
    res = out["truncation"]
    good = res.good_mask
    checks = [(f"verify_cover {key}", vc[key] is True) for key in ("W1", "W2", "W3", "W4", "W5", "W6", "W7")]
    checks += [
        ("cover is not empty", len(out["cover"]) > 0),
        ("self_improve status pass", improved["status"] == "pass"),
        ("self_improve eps_max > 0", improved["stages"]["certificate"]["eps_max"] > 0),
        ("truncation bad set nonempty", bool(res.bad_mask.any())),
        ("truncation equals v on the good set bitwise",
         res.v_lambda.values[good].tobytes() == res.v.values[good].tobytes()),
    ]
    produced = [
        out["cover"].centers, out["cover"].radii, vc, improved,
        res.v_lambda.values, good, res.lam, out["derivative_bounds"], out["admissibility"],
    ]
    return checks, digest(produced)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    cross_check: Callable | None = None


WORKLOADS = {
    "verify_all": Workload(verify_setup, verify_run, verify_check, verify_cross_check),
    "field_ops": Workload(field_setup, field_run, field_check),
    "ball_scans": Workload(ball_setup, ball_run, ball_check),
}
