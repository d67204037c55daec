"""Command-line interface.

Exit codes: 0 on success with all checks passing, 1 when a verification
check fails, 2 on input errors (unknown suite, malformed files, bad
parameters).
"""

from __future__ import annotations

import argparse
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


def _parse_ball(text: str, grid):
    """A ``c1,...,cn,r`` ball argument, checked against the grid it restricts."""
    *center, radius = (float(x) for x in text.split(","))
    if len(center) != grid.n:
        raise GridError(f"ball {text!r} needs {grid.n} center coordinates and a radius")
    if not radius > 0:
        raise GridError(f"ball radius must be > 0, got {radius}")
    return center, radius


def _parse_seed(text: str) -> int:
    return int(text, 0)


def _fmt_value(x) -> str:
    """A check's measured value or bound as the report writes it; '-' if unset."""
    return "-" if x is None else to_json(x)


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    common.add_argument("--grid-size", type=int, default=None,
                        help="override the default lattice size per axis")
    common.add_argument("--output-dir", type=Path, default=Path("."))

    parser = argparse.ArgumentParser(prog="dptool", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("exponents", help="derive the exponent block from a config file")
    p.add_argument("--config", required=True)

    p = add_parser("regularize", help="infimal-convolution regularization of a weight")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--output", required=True)

    p = add_parser("maximal", help="discrete maximal function")
    p.add_argument("--input", required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--mode", choices=("centered", "uncentered"), default="uncentered")
    p.add_argument("--restrict", default=None, help="ball:cx,cy,r")
    p.add_argument("--iterate", type=int, default=1)
    p.add_argument("--output", required=True)

    p = add_parser("riesz", help="restricted Riesz potential")
    p.add_argument("--input", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--ball", required=True, help="cx[,cy[,cz]],r")
    p.add_argument("--output", required=True)

    p = add_parser("polyfit", help="weighted mean-value polynomial")
    p.add_argument("--input", required=True)
    p.add_argument("--ball", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--center", required=True)

    p = add_parser("whitney", help="Whitney cover of a mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--verify", action="store_true")

    p = add_parser("truncate", help="Lipschitz truncation")
    p.add_argument("--u", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--lambda-mult", type=float, default=1.5)
    p.add_argument("--ball", required=True, help="cx,cy,R")
    p.add_argument("--output", required=True)
    p.add_argument("--report", default=None)

    p = add_parser("gehring", help="certificate constants or the scan")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--eps0", type=float, default=0.5)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--f1", default=None)
    p.add_argument("--f2", default=None)
    p.add_argument("--R0", type=float, default=0.25)
    p.add_argument("--mode", choices=("all", "conditional"), default="all")

    p = add_parser("residual", help="weak-form residual of the model system")
    p.add_argument("--u", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--report", default=None)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (GridError, ex.ExponentError, OSError, KeyError, ValueError) as exc:
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
        restriction = None
        if args.restrict:
            kind, spec = args.restrict.split(":", 1)
            if kind != "ball":
                raise ValueError(f"unsupported restriction {kind!r}")
            center, radius = _parse_ball(spec, f)
            restriction = ball(center, radius)
        spec = mx.MaximalSpec(beta=args.beta, mode=args.mode, restriction=restriction, iterations=args.iterate)
        write_dpgrid(args.output, mx.maximal_function(f, spec))
        return 0

    if args.command == "riesz":
        f = load_grid(args.input)
        center, radius = _parse_ball(args.ball, f)
        out = pt.riesz_potential(f, pt.PotentialSpec(gamma=args.gamma, region=ball(center, radius)))
        write_dpgrid(args.output, out)
        return 0

    if args.command == "polyfit":
        u = load_grid(args.input)
        eta = load_grid(args.weight)
        center_ball, radius = _parse_ball(args.ball, u)
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
            doc["verification"] = {k: v for k, v in wh.verify_cover(cov, mgrid, mask).items()}
        Path(args.output).write_text(to_json(doc) + "\n", encoding="utf-8")
        return 0

    if args.command == "truncate":
        u = load_grid(args.u)
        center, R = _parse_ball(args.ball, u)
        a = load_grid(args.a)
        cfg = ex.ExponentConfig.from_json(args.config)
        der = ex.derive(cfg)
        est, div = estimate_seminorm(a, cfg.alpha)
        w = Weight(a=a, alpha=cfg.alpha, seminorm_estimate=max(1.0, est))
        tc = tr.TruncationConfig(center=np.asarray(center), R=R, lambda_mult=args.lambda_mult)
        res = tr.truncate(u, w, cfg, der, tc)
        write_dpgrid(args.output, res.v_lambda)
        if args.report:
            doc = {
                "lambda": res.lam, "lambda0": res.lambda0,
                "balls": len(res.cover), "bad_cells": int(res.bad_mask.sum()),
                "derivative_bounds": {str(k): v for k, v in tr.derivative_bounds_report(res)["c1"].items()},
            }
            Path(args.report).write_text(to_json(doc) + "\n", encoding="utf-8")
        return 0

    if args.command == "gehring":
        if args.verify:
            if not (args.f1 and args.f2):
                raise ValueError("--verify needs --f1 and --f2")
            f1 = load_grid(args.f1)
            f2 = load_grid(args.f2)
            cert = ge.gehring_constants(args.n, args.A, args.kappa, args.eps0, R0=args.R0)
            out = ge.gehring_verify(f1, f2, cert, mode=args.mode)
            out.pop("records")
            print(to_json(out))
            return 0 if out["premise_failures"] == 0 else 1
        cert = ge.gehring_constants(args.n, args.A, args.kappa, args.eps0, R0=args.R0)
        print(to_json(cert.as_dict()))
        return 0

    if args.command == "residual":
        u = load_grid(args.u)
        a = load_grid(args.a)
        phi = load_grid(args.phi)
        w = Weight(a=a, alpha=1.0, seminorm_estimate=1.0)
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
        report = run_suite(args.suite, sizes=sizes, seed=args.seed)
        text = to_json(report.as_dict()) + "\n"
        target = args.report or (args.output_dir / f"report_{args.suite}.json")
        Path(target).write_text(text, encoding="utf-8")
        print(text, end="")
        for c in report.failed():
            print(f"failed: {c.name}: measured {_fmt_value(c.measured)}, bound {_fmt_value(c.bound)}",
                  file=sys.stderr)
        return 0 if report.status == "pass" else 1

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
