"""Command-line interface.

Exit codes: 0 on success with all checks passing, 1 when a verification
check fails, 2 on input errors (unknown suite, malformed files, bad
parameters, or work past a budget).

Three work budgets are checked before anything is allocated for the run:
``maximal`` rejects a lattice of C cells with ``--iterate L`` when
max(C, PASS_FLOOR_CELLS) * L > MAX_CELL_ITERATIONS (2^24).  Timed on a
2-core machine, a pass costs 1 to 8 us per cell on large lattices (8 in
3-D with beta near 3, where no radius is pruned) and at most about 3 ms
on lattices of up to PASS_FLOOR_CELLS = 2048 cells, so a run within the
budget takes from about 17 s to 2.3 min.  It also rejects a lattice
whose largest padded spectrum (16 bytes times the largest padded FFT
shape, ``maximal.padded_shapes``) exceeds MAX_SPECTRUM_BYTES (64 MiB).  The
largest square and cube within it, 544^2 and 37^3, peaked at 121 MB and
86 MB RSS on uniform random samples, in the worst mode and beta tried
(uncentered at beta 1.99, centered at beta 2.99; 64^3 peaked at 450 MB).
``verify`` rejects a ``--grid-size`` whose largest suite field, cells *
components * 8 bytes with n components on the n-D lattice, exceeds
MAX_FIELD_BYTES (64 MiB); ``verify --suite all --grid-size 281``, the
largest size within it, took 2.5 s on the same machine, its suites split
over two processes that peaked at 185 MB and 44 MB RSS.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import exponents as ex
from . import gehring as ge
from . import harness as hn
from . import maximal as mx
from . import meanpoly as mp
from . import potentials as pt
from . import truncation as tr
from . import whitney as wh
from .corpus import DEFAULT_SEED
from .dpgrid_io import load_grid, write_dpgrid
from .grid import GridError, ball
from .reporting import to_json
from .suites import DEFAULT_SIZES, SUITE_NAMES, run_suite
from .weights import Weight, estimate_seminorm, regularize


MAX_CELL_ITERATIONS = 2**24
PASS_FLOOR_CELLS = 2**11
MAX_FIELD_BYTES = 2**26
MAX_SPECTRUM_BYTES = 2**26


def _within_budget(what: str, amount: int, budget: int) -> None:
    if amount > budget:
        raise ValueError(f"{what} is {amount}, past the budget of {budget}")


def _parse_ball(flag: str, text: str, grid, reach: float = 1.0):
    """A ``c1,...,cn,r`` ball argument, checked against the grid it restricts.

    ``reach`` is the widest multiple of the radius that the command's balls
    take: squared distances from the center across the lattice's box, and
    out to that radius, must be finite.  A lattice too wide on its own is
    left for the command to name.
    """
    *center, radius = (float(x) for x in text.split(","))
    if len(center) != grid.n:
        raise GridError(f"ball {text!r} of {flag} needs {grid.n} center coordinates and a radius")
    if not radius > 0:
        raise GridError(f"ball radius of {flag} must be > 0, got {radius}")
    with np.errstate(over="ignore", invalid="ignore"):
        lattice = np.sum((grid.box_hi - grid.box_lo) ** 2)
        far = np.maximum(np.abs(grid.box_lo - center), np.abs(grid.box_hi - center))
        d2 = np.sum(far**2) + np.float64(reach * radius) ** 2
    if np.isfinite(lattice) and not np.isfinite(d2):
        raise GridError(f"ball {text!r} of {flag} leaves float range on this lattice: the squared distances "
                        f"its balls need (across the lattice and out to {reach:g}r) are not finite")
    return center, radius


def _parse_seed(text: str) -> int:
    seed = int(text, 0)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _in_existing_dir(path) -> Path:
    """``path`` as a Path, once it is known to name a file in a directory
    that exists: checked before any work, so that a long run never ends in
    a failed write."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"directory of {str(path)!r} does not exist")
    if path.is_dir():
        raise IsADirectoryError(f"{str(path)!r} is a directory")
    return path


def _load_weight(path, u, alpha: float) -> Weight:
    """The weight in ``path``, refused unless it lives on ``u``'s lattice."""
    a = load_grid(path)
    if not u.same_lattice(a):
        raise GridError("weight must live on the same lattice")
    return Weight(a=a, alpha=alpha)


def _fmt_value(x) -> str:
    """A check's measured value or bound as the report writes it; '-' if unset."""
    return "-" if x is None else to_json(x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dptool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="derive the exponent block from a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("regularize", help="infimal-convolution regularization of a weight")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("maximal", help="discrete maximal function")
    p.add_argument("--input", required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--mode", choices=("centered", "uncentered"), default="uncentered")
    p.add_argument("--restrict", default=None, help="ball:cx,cy,r")
    p.add_argument("--iterate", type=int, default=1)
    p.add_argument("--output", required=True)

    p = sub.add_parser("riesz", help="restricted Riesz potential")
    p.add_argument("--input", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--ball", required=True, help="cx[,cy[,cz]],r")
    p.add_argument("--output", required=True)

    p = sub.add_parser("polyfit", help="weighted mean-value polynomial")
    p.add_argument("--input", required=True)
    p.add_argument("--ball", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--center", required=True)

    p = sub.add_parser("whitney", help="Whitney cover of a mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("truncate", help="Lipschitz truncation")
    p.add_argument("--u", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--lambda-mult", type=float, default=1.5)
    p.add_argument("--ball", required=True, help="cx,cy,R")
    p.add_argument("--output", required=True)
    p.add_argument("--report", default=None)

    p = sub.add_parser("gehring", help="certificate constants or the scan")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--eps0", type=float, default=0.5)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--f1", default=None)
    p.add_argument("--f2", default=None)
    p.add_argument("--R0", type=float, default=0.25)
    p.add_argument("--mode", choices=("all", "conditional"), default="all")

    p = sub.add_parser("residual", help="weak-form residual of the model system")
    p.add_argument("--u", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p.add_argument("--grid-size", type=int, default=None,
                   help="override the default lattice size per axis")
    p.add_argument("--output-dir", type=Path, default=Path("."))

    args = parser.parse_args(argv)
    try:
        # an overflow, invalid or zero-division step on the input's values is
        # an input error, never a warning beside a finished result
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _dispatch(args)
    except (GridError, ex.ExponentError, OSError, KeyError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "exponents":
        cfg = ex.ExponentConfig.from_json(args.config)
        checks = ex.validate(cfg)
        if not ex.validation_passes(checks):
            bad = [c.as_dict() for c in checks if not c.ok]
            print(to_json({"status": "invalid", "failed": bad}))
            return 2
        der = ex.derive(cfg)
        print(to_json(der.as_dict()))
        return 0

    if args.command == "regularize":
        a = load_grid(args.input)
        est, div = estimate_seminorm(a, args.alpha)
        if div:
            print(to_json({"status": "diverging", "seminorm_estimate": est}))
            return 1
        at = regularize(a, args.alpha, diverging=div)
        est2, _ = estimate_seminorm(at, args.alpha)
        write_dpgrid(args.output, at)
        print(to_json({"seminorm_input": est, "seminorm_regularized": est2}))
        return 0

    if args.command == "maximal":
        f = load_grid(args.input)
        _within_budget(f"--iterate work (max(cells, {PASS_FLOOR_CELLS}) x iterations)",
                       max(math.prod(f.dims), PASS_FLOOR_CELLS) * args.iterate, MAX_CELL_ITERATIONS)
        _within_budget("largest padded spectrum bytes (16 x padded cells)",
                       16 * max(map(math.prod, mx.padded_shapes(f.dims).values()), default=0), MAX_SPECTRUM_BYTES)
        restriction = None
        if args.restrict:
            kind, spec = args.restrict.split(":", 1)
            if kind != "ball":
                raise ValueError(f"unsupported restriction {kind!r}")
            center, radius = _parse_ball("--restrict", spec, f)
            restriction = ball(center, radius)
        spec = mx.MaximalSpec(beta=args.beta, mode=args.mode, restriction=restriction, iterations=args.iterate)
        write_dpgrid(args.output, mx.maximal_function(f, spec))
        return 0

    if args.command == "riesz":
        f = load_grid(args.input)
        center, radius = _parse_ball("--ball", args.ball, f)
        out = pt.riesz_potential(f, pt.PotentialSpec(gamma=args.gamma, region=ball(center, radius)))
        write_dpgrid(args.output, out)
        return 0

    if args.command == "polyfit":
        u = load_grid(args.input)
        eta = load_grid(args.weight)
        center_ball, radius = _parse_ball("--ball", args.ball, u)
        center = [float(x) for x in args.center.split(",")]
        if len(center) != u.n or not np.all(np.isfinite(center)):
            raise GridError(f"center {args.center!r} needs {u.n} finite coordinates")
        P = mp.fit(u, ball(center_ball, radius), eta, args.order, np.asarray(center))
        out = {"center": center, "degree_bound": args.order - 1,
               "coefficients": {",".join(map(str, sig)): [float(v) for v in coef]
                                for sig, coef in sorted(P.coeffs.items())}}
        print(to_json(out))
        return 0

    if args.command == "whitney":
        mgrid = load_grid(args.mask)
        mask = mgrid.scalar() > 0.5
        cov = wh.cover(mgrid, mask, R=float(np.max(mgrid.box_hi - mgrid.box_lo)))
        doc = cov.as_dict()
        if args.verify:
            doc["verification"] = wh.verify_cover(cov, mgrid, mask)
        Path(args.output).write_text(to_json(doc) + "\n", encoding="utf-8")
        return 0

    if args.command == "truncate":
        report = _in_existing_dir(args.report) if args.report else None
        u = load_grid(args.u)
        center, R = _parse_ball("--ball", args.ball, u, reach=4.0)  # the truncation reaches B_4R
        cfg = ex.ExponentConfig.from_json(args.config)
        if cfg.n != u.n:
            raise GridError(f"config dimension n = {cfg.n} differs from the grid's dimension {u.n}")
        w = _load_weight(args.a, u, cfg.alpha)
        der = ex.derive(cfg)
        tc = tr.TruncationConfig(center=np.asarray(center), R=R, lambda_mult=args.lambda_mult)
        res = tr.truncate(u, w, cfg, der, tc)
        write_dpgrid(args.output, res.v_lambda)
        if report:
            doc = {
                "lambda": res.lam, "lambda0": res.lambda0,
                "balls": len(res.cover), "bad_cells": int(res.bad_mask.sum()),
                "derivative_bounds": {str(k): v for k, v in tr.derivative_bounds_report(res).items()},
            }
            report.write_text(to_json(doc) + "\n", encoding="utf-8")
        return 0

    if args.command == "gehring":
        if args.verify:
            if not (args.f1 and args.f2):
                raise ValueError("--verify needs --f1 and --f2")
            f1 = load_grid(args.f1)
            f2 = load_grid(args.f2)
            cert = ge.gehring_constants(args.n, args.A, args.kappa, args.eps0, R0=args.R0)
            out = ge.gehring_verify(f1, f2, cert, mode=args.mode)
            print(to_json(out))
            return 0 if out["premise_failures"] == 0 else 1
        cert = ge.gehring_constants(args.n, args.A, args.kappa, args.eps0, R0=args.R0)
        print(to_json(cert.as_dict()))
        return 0

    if args.command == "residual":
        u = load_grid(args.u)
        w = _load_weight(args.a, u, 1.0)
        phi = load_grid(args.phi)
        val = hn.model_residual(u, w, args.p, args.q, phi)
        print(to_json({"residual": val}))
        return 0

    if args.command == "verify":
        if args.suite not in SUITE_NAMES:
            raise KeyError(f"unknown suite {args.suite!r}; choose from {SUITE_NAMES}")
        sizes = dict(DEFAULT_SIZES)
        if args.grid_size is not None:
            if args.grid_size < 2:
                raise ValueError(f"--grid-size must be >= 2 cells per axis, got {args.grid_size}")
            sizes = {1: args.grid_size, 2: args.grid_size, 3: max(8, args.grid_size // 2)}
            _within_budget("--grid-size field bytes (cells x components x 8)",
                           max(size**n * n * 8 for n, size in sizes.items()), MAX_FIELD_BYTES)
        target = _in_existing_dir(args.report or args.output_dir / f"report_{args.suite}.json")
        report = run_suite(args.suite, sizes=sizes, seed=args.seed)
        text = to_json(report.as_dict()) + "\n"
        target.write_text(text, encoding="utf-8")
        print(text, end="")
        for c in report.failed():
            print(f"failed: {c.name}: measured {_fmt_value(c.measured)}, bound {_fmt_value(c.bound)}",
                  file=sys.stderr)
        return 0 if report.status == "pass" else 1

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
