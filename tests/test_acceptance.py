"""Acceptance gate: the ten primary criteria, each at its pinned tolerance.

Every test prints one criterion line (pass/fail with the measured value)
before asserting, so a red run still reports the full picture.
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dptool import exponents as ex
from dptool import gehring as ge
from dptool import grid as g
from dptool import harness as hn
from dptool import maximal as mx
from dptool import meanpoly as mp
from dptool import potentials as pt
from dptool import truncation as tr
from dptool import whitney as wh
from dptool.cli import main as cli_main
from dptool.corpus import fourier_corpus
from dptool.reporting import Check, to_json
from dptool.suites import DEFAULT_GRID_SIZE, lattice_sizes, random_masks, run_suite, truncation_fixture
from dptool.weights import Weight, regularize


def criterion(num, label, ok, measured=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label} {measured}")
    assert ok, f"criterion {num} failed: {label} {measured}"


# --------------------------------------------------------------------------


def test_criterion_1_exponent_identities():
    rng = np.random.default_rng(0x5EED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0, n - 0.5))
        q = float(rng.uniform(p, n - 1e-3))
        alpha = float(rng.uniform(0.1, 3.0))
        beta = n * (1 / p - 1 / q) + 1
        worst = max(worst, abs((1 + alpha / q - beta) - (n / q) * (1 + alpha / n - q / p)))
        worst = max(worst, abs((1 / p - beta / n) - (1 / q - 1 / n)))
        gap_ok = q / p < 1 + alpha / n
        cfg = ex.ExponentConfig(n=n, m=1, p=p, q=q,
                                alpha=alpha if gap_ok else (q / p - 1) * n + 0.1)
        got = ex.select_gammas(cfg)
        for r in ("p", "q"):
            rv = cfg.r_value(r)
            rp = ex.holder_conjugate(rv)
            for ell in range(2):
                s_hat = got["s_hat"][r][ell]
                inv_s = 0.0 if math.isinf(s_hat) else 1 / s_hat
                worst = max(worst, abs(inv_s + 1 / got["gamma"][r][ell] + 1 / rp - 1))
                worst = max(worst, abs(1 / got["t_hat"][r][ell] + 1 / got["gamma"][r][ell] - 1))
    cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)
    der = ex.derive(cfg)
    strict = [c for c in ex.check_derived(cfg, der) if not c.ok]
    criterion(1, "identities at 1e-14 and re-validated selection",
              worst < 1e-14 and not strict, f"(worst residual {worst:.2e})")


def test_criterion_2_gehring_constants():
    cert = ge.gehring_constants(1, 1.0, 0.5, 0.5)
    exact = (cert.d == 0.75 and cert.c1 == 10.0
             and cert.c_star == 1000.0 and cert.eps_max == 5e-4)
    e1 = abs(ge.iteration_constant(0.5, 0.0) - 2.0)
    e2 = abs(ge.iteration_constant(0.5, 1.0) - 16.0)
    stars = [ge.gehring_constants(2, 2.0, 0.5, e).c_star for e in np.linspace(0.05, 1.0, 20)]
    mono = all(a < b for a, b in zip(stars, stars[1:]))
    criterion(2, "appendix constants exact, iteration sums, monotone c*",
              exact and e1 < 1e-12 and e2 < 1e-12 and mono,
              f"(iteration residuals {e1:.1e}, {e2:.1e})")


def test_criterion_3_gehring_verification():
    s, kappa = 0.5, 0.5
    A_analytic = 3**s * (2 / (2 - s)) * ((2 - s * kappa) / 2) ** (1 / kappa)
    cert = ge.gehring_constants(2, 2.0 * A_analytic, kappa, 0.5, R0=0.2)
    # f1 in L^(1+2 eps_max): s (1 + 2 eps_max) < 2 by a wide margin
    assert s * (1 + 2 * cert.eps_max) < 2
    f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 128,
                       lambda p: (np.linalg.norm(p, axis=1) + 1e-12) ** -s)
    f2 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 128, lambda p: np.full(len(p), 0.01))
    omega = g.ball([0.0, 0.0], 1.0)
    family = ge._ball_pair_family(f1, omega, cert.R0)
    out = ge.gehring_verify(f1, f2, cert, family)
    # per pair, as gehring_verify measures it: mode "all" applies the
    # premise to every pair
    _applicable, A_req, concl = ge._gehring_walk(f1, f2, cert, family, "all")
    concl_ok = bool(np.isfinite(concl[A_req <= cert.A * (1 + 1e-9)]).all())
    criterion(3, "premise >= 95%, A <= 2x analytic, conclusion everywhere",
              out["premise_pass_fraction"] >= 0.95
              and out["A_required_max"] <= 2 * A_analytic and concl_ok,
              f"(pass {out['premise_pass_fraction']:.3f}, A_req {out['A_required_max']:.3f} "
              f"vs 2x{A_analytic:.3f})")


def test_criterion_4_mean_value_polynomials():
    worst_moment = 0.0
    for n, m, size in ((1, 2, 256), (1, 3, 256), (2, 2, 64), (2, 3, 64)):
        for f in fourier_corpus(n, 5, size, lo=-0.5, hi=0.5, seed=0x5EED + m):
            B = g.ball([0.0] * n, 0.4)
            eta = f.with_values(np.ones(f.dims)[..., None])
            P = mp.fit(f, B, eta, m, np.zeros(n))
            worst_moment = max(worst_moment, mp.moment_residual(P, f, B, eta))
    u = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 64,
                      lambda p: 1 + p[:, 0] - 2 * p[:, 1] + p[:, 0] * p[:, 1])
    B = g.ball([0.0, 0.0], 0.4)
    eta = u.with_values(np.ones(u.dims)[..., None])
    P = mp.fit(u, B, eta, 3, np.zeros(2))
    P2 = mp.fit(P.sample(u), B, eta, 3, np.zeros(2))
    idem = max(float(np.abs(P.coeffs[s_] - P2.coeffs[s_]).max()) for s_ in P.coeffs)
    ux = g.create_grid(g.box([-1.0], [1.0]), 2048, lambda p: p[:, 0] ** 2)
    whole = g.ball([0.0], 1.0)
    assert whole.mask_for(ux).all()
    Px = mp.fit(ux, whole, ux.with_values(np.ones(ux.dims)[..., None]), 2, np.array([0.0]))
    third = abs(float(Px.coeffs[(0,)][0]) - 1.0 / 3.0)
    criterion(4, "moments <= 1e-8, idempotence <= 1e-12, x^2 gives 1/3 +- 1e-6",
              worst_moment <= 1e-8 and idem <= 1e-12 and third <= 1e-6,
              f"(moment {worst_moment:.1e}, idem {idem:.1e}, third {third:.1e})")


def test_criterion_5_whitney_partition():
    grid = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 80, lambda p: np.zeros(len(p)))
    masks = random_masks(grid, 10, seed=0x5EED)
    geom_ok = True
    overlap = 0
    psum_err = 0.0
    for m_ in masks:
        if not m_.any():
            continue
        cov = wh.cover(grid, m_, R=1.0)
        chk = wh.verify_cover(cov, grid, m_, pair_samples=8)
        geom_ok = geom_ok and chk["W1"] and chk["W3"] and chk["W5"]
        overlap = max(overlap, chk["overlap_max"])
        pou = wh.PartitionOfUnity(cov)
        cells, psis, _ = pou.psi_grid(grid)
        total = np.zeros(int(np.prod(grid.dims)))
        for cc, vv in zip(cells, psis):
            np.add.at(total, cc, vv)
        psum_err = max(psum_err, float(np.abs(total[m_.reshape(-1)] - 1.0).max()))
    p2 = []
    for size in (64, 128):
        gr = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), size, lambda p: np.zeros(len(p)))
        mask = np.linalg.norm(gr.cell_centers(), axis=-1) < 0.3
        pou = wh.PartitionOfUnity(wh.cover(gr, mask, R=1.0))
        p2.append(wh.pou_derivative_bound_report(pou, 1)[1])
    p2_stable = abs(p2[1] - p2[0]) / p2[0] <= 0.2
    criterion(5, "(W1)(W3)(W5) exact, overlap <= 256, partition 1e-10, (P2) +-20%",
              geom_ok and overlap <= 256 and psum_err <= 1e-10 and p2_stable,
              f"(overlap {overlap}, psum {psum_err:.1e}, P2 drift "
              f"{abs(p2[1]-p2[0])/p2[0]:.3f})")


def test_criterion_6_truncation():
    campanato = {}
    bitwise_ok = True
    robust_ok = True
    finite_ok = True
    for size in (128, 256):
        u, w, cfg, der, tc, data = truncation_fixture(size)
        gs = tr.assemble_g(u, w, cfg, der, tc, data=data)
        series = {}
        for mult in (1.1, 2.0, 4.0):
            tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lambda_mult=mult, delta=tc.delta)
            res = tr.truncate(u, w, cfg, der, tcm, data=data, goodset=gs)
            assert res.bad_mask.any()
            bitwise_ok = bitwise_ok and bool(
                (res.v_lambda.values[res.good_mask] == res.v.values[res.good_mask]).all()
            )
            for key, val in tr.derivative_bounds_report(res).items():
                finite_ok = finite_ok and math.isfinite(val)
                series.setdefault(key, []).append(val)
            if mult == 1.1:
                campanato[size] = max(tr.admissibility_report(res).values())
        for key, vals in series.items():
            for a, b in zip(vals, vals[1:]):
                if a > 0 and (b - a) / a > 0.25:
                    robust_ok = False
        if size == 128:
            lam = float(gs.G.scalar().max()) * 2
            tcg = tr.TruncationConfig(center=tc.center, R=tc.R, lam=lam, delta=tc.delta)
            resg = tr.truncate(u, w, cfg, der, tcg, data=data, goodset=gs)
            bitwise_ok = bitwise_ok and np.array_equal(resg.v_lambda.values, resg.v.values)
    camp_drift = abs(campanato[256] - campanato[128]) / campanato[128]
    criterion(6, "bitwise good set, lambda-robust bounds, Campanato +-20%",
              bitwise_ok and robust_ok and finite_ok and camp_drift <= 0.2,
              f"(campanato {campanato[128]:.4g} -> {campanato[256]:.4g}, "
              f"drift {camp_drift:.3f})")


def sp_ratio(sides):
    """LHS/(RHS1 + RHS2) of ``sobolev_poincare_report``'s sides, as the
    potentials suite forms it."""
    lhs, rhs_weighted, rhs_scaling = sides
    return g._ratio(lhs, rhs_weighted + rhs_scaling)


def test_criterion_7_sobolev_poincare():
    consts = {}
    homog_ok = True
    verdict_ok = True
    for size in (64, 128):
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        a_raw = g.create_grid(b, size, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
        at = regularize(a_raw, 0.5, diverging=False)
        w = Weight(a=at, alpha=0.5)
        B = g.ball([0.0, 0.0], 0.45)
        worst = 0.0
        for i, f in enumerate(fourier_corpus(2, 50, size, lo=-0.5, hi=0.5, seed=0x5EED)):
            eta = f.with_values(np.ones(f.dims)[..., None])
            P = mp.fit(f, B, eta, 1, np.zeros(2))
            u0 = f.with_values(f.values - P.coeffs[(0, 0)])
            ratio = sp_ratio(pt.sobolev_poincare_report(u0, w, 2.0, 2.2, B, eta, 1, 2.2, 0.45))
            worst = max(worst, ratio)
            if size == 64 and i == 0:
                ratio2 = sp_ratio(pt.sobolev_poincare_report(
                    u0.with_values(2 * u0.values), w, 2.0, 2.2, B, eta, 1, 2.2, 0.45))
                homog_ok = abs(ratio2 - ratio) <= 1e-12 * ratio
        consts[size] = worst
    drift = abs(consts[128] - consts[64]) / consts[64]
    # unit-weight corpus: dropping the scaling term never flips the verdict
    ones_grid = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 64, lambda p: np.ones(len(p)))
    w1 = Weight(a=ones_grid, alpha=0.5)
    B = g.ball([0.0, 0.0], 0.45)
    outs = []
    for f in fourier_corpus(2, 20, 64, lo=-0.5, hi=0.5, seed=0xA11CE):
        eta = f.with_values(np.ones(f.dims)[..., None])
        P = mp.fit(f, B, eta, 1, np.zeros(2))
        u0 = f.with_values(f.values - P.coeffs[(0, 0)])
        outs.append(pt.sobolev_poincare_report(u0, w1, 2.0, 2.2, B, eta, 1, 2.2, 0.45))
    C = 2.0 * max(sp_ratio(o) for o in outs)
    for lhs, rhs_weighted, rhs_scaling in outs:
        full = lhs <= C * (rhs_weighted + rhs_scaling)
        dropped = lhs <= C * rhs_weighted
        verdict_ok = verdict_ok and (full == dropped)
    criterion(7, "50-function corpus stable +-20%, homogeneity, verdict stable",
              drift <= 0.2 and homog_ok and verdict_ok,
              f"(C {consts[64]:.4f} -> {consts[128]:.4f}, drift {drift:.3f})")


def test_criterion_8_maximal():
    sandwich_ok = True
    corpus = fourier_corpus(2, 10, 96, seed=0x5EED)
    for f in corpus:
        Munc = mx.maximal_function(f, mx.MaximalSpec()).scalar()
        Mcen = mx.maximal_function(f, mx.MaximalSpec(mode="centered")).scalar()
        pos = Mcen > 0
        sandwich_ok = sandwich_ok and np.all(Munc >= Mcen - 1e-12) and (
            float((Munc[pos] / Mcen[pos]).max()) <= 4.0 * (1 + 0.05))
    comp = Check.from_bound("composition", mx.composition_report(corpus, 1.0), mx.composition_bound(2, 1.0))
    comp_ok = comp.status == "pass"
    u = g.create_grid(g.box([-4.0], [4.0]), 256,
                      lambda p: (np.abs(p[:, 0]) <= 1.0).astype(float))
    M = mx.maximal_function(u, mx.MaximalSpec())
    x = u.axis_centers(0)
    val = float(M.scalar()[int(np.argmin(np.abs(x - 3.0)))])
    ind_ok = abs(val - 0.5) <= 2 * u.spacing
    criterion(8, "sandwich, composition bound, indicator value",
              sandwich_ok and comp_ok and ind_ok,
              f"(Mf(3) = {val:.4f} vs 0.5 +- {2*u.spacing:.4f})")


def test_criterion_9_pipeline():
    b = g.box([-0.5, -0.5], [0.5, 0.5])
    u = g.create_grid(b, 96, lambda p: np.sin(4 * p[:, 0]) * np.cos(3 * p[:, 1]) + 0.3 * p[:, 0] ** 2)
    a_raw = g.create_grid(b, 96, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
    at = regularize(a_raw, 0.5, diverging=False)
    w = Weight(a=at, alpha=0.5)
    cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)
    out = hn.self_improve(u, w, cfg, g.ball([0.0, 0.0], 0.48), R0=0.1)
    c = out["stages"]["certificate"]
    eps = c["eps_max"]
    # the same certificate with kappa -> 1: A and eps0 do not depend on kappa
    eps2 = ge.gehring_constants(c["n"], c["A"], 1 - 1e-9, c["eps0"], R0=c["R0"]).eps_max
    criterion(9, "self_improve passes with eps_max > 0; kappa -> 1 kills it",
              out["status"] == "pass" and eps > 0 and eps2 <= 1e-9,
              f"(eps_max {eps:.3e}, degenerate {eps2:.1e})")


# sha256 of `verify --suite all --seed 0x5EED`, recorded under this numpy
# version; other versions may round differently.  No verify path loads
# scipy, so its version does not enter.  The 0x5EED report of the FFT
# convolution padded to the full linear length is kept in tests/data
# (sha256 ecd5bd65...); the last test lists what the shorter padding moved.
REPORT_SHA256 = "d79d70bc10083b67eb2128b1c8d55cc6a889a4f9d0ba5d06a744a339bd680ab3"
REPORT_VERSIONS = {"numpy": "2.4.6"}
# the same report at three more seeds, under the same numpy version
SEED_REPORT_SHA256 = {
    1: "15daf7bea38149d8997e0247077b4679f831129a69e9edf61652b2c05e867a95",
    2: "a38c2be12d022ad215c09eb0f59b6370f3214d1253e10b4327d1759138417f9d",
    3: "03e0c21c7bbb5492c652a11d59f9fb301d5389fc8fa54b8ea512b1c6ba2f826e",
}


def test_criterion_10_determinism(tmp_path):
    cmd = [sys.executable, "-m", "dptool.cli", "verify", "--suite", "all",
           "--seed", "0x5EED"]
    outs = []
    for name in ("a.json", "b.json"):
        res = subprocess.run(cmd + ["--report", str(tmp_path / name)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
        outs.append((tmp_path / name).read_bytes())
    identical = outs[0] == outs[1]
    doc = json.loads(outs[0])
    criterion(10, "suite-all reports byte-identical across runs",
              identical and doc["status"] == "pass",
              f"({len(doc['checks'])} checks)")
    versions = {"numpy": np.__version__}
    if versions != REPORT_VERSIONS:
        pytest.skip(f"report digest recorded under {REPORT_VERSIONS}, running {versions}")
    assert hashlib.sha256(outs[0]).hexdigest() == REPORT_SHA256


@pytest.mark.parametrize("seed", sorted(SEED_REPORT_SHA256))
def test_report_digest_at_other_seeds(seed):
    """The bytes `verify --suite all --seed S` writes, built in process."""
    versions = {"numpy": np.__version__}
    if versions != REPORT_VERSIONS:
        pytest.skip(f"report digests recorded under {REPORT_VERSIONS}, running {versions}")
    text = to_json(run_suite("all", seed, lattice_sizes(DEFAULT_GRID_SIZE)).as_dict()) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEED_REPORT_SHA256[seed]


# The leaves that padding each FFT axis to d + c rather than d + 2c moved at
# 0x5EED: each value goes through an FFT convolution of a different length.
PADDING_MOVED = [
    'checks["maximal: sandwich upper 2^n"].measured',
    'checks["maximal: composition vs propagated bound"].measured',
    'checks["potentials: 1d riesz closed form"].measured',
    'checks["potentials: strong type ratio finite"].measured',
    'checks["potentials: hedberg bound finite"].measured',
    'checks["potentials: weighted split vs reference constant"].measured',
    'checks["meanpoly: kernel bound finite"].measured',
    'checks["pipeline: kappa->1 collapses eps_max"].measured',
    "constants.maximal.composition_sup",
    "constants.maximal.sandwich_sup",
    "constants.potentials.strong_type_ratio",
    "constants.pipeline.certificate.A",
    "constants.pipeline.certificate.theta_g",
    "constants.pipeline.certificate.c1",
    "constants.pipeline.certificate.c_star",
    "constants.pipeline.reverse_holder_constant",
]


def test_report_diff_against_the_full_padding_report(tmp_path, capsys):
    """`verify --baseline` against the 0x5EED report of the full linear
    padding: the report bytes are the pinned ones, and only the pinned
    leaves moved, each by a rounding-level amount.  A value computed from
    FFT sums of N <= 2^21 cells carries a relative error of about
    6 u log2(N) < 3e-14 from each length (``maximal._MASS_SLACK``'s comment),
    and the one error measure among them, the Riesz closed form's, is a
    difference that amplifies it by its cancellation; 1e-10 relative
    leaves room for both and still tells rounding from a changed result."""
    versions = {"numpy": np.__version__}
    if versions != REPORT_VERSIONS:
        pytest.skip(f"report digests recorded under {REPORT_VERSIONS}, running {versions}")
    baseline = Path(__file__).parent / "data" / "report_all_0x5EED_ecd5bd65.json"
    assert hashlib.sha256(baseline.read_bytes()).hexdigest().startswith("ecd5bd65")
    rc = cli_main(["verify", "--suite", "all", "--seed", "0x5EED", "--report", str(tmp_path / "r.json"),
                   "--baseline", str(baseline)])
    captured = capsys.readouterr()
    assert rc == 0 and hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == REPORT_SHA256
    moves = [line.split(": ", 1)[1].rsplit(": ", 1) for line in captured.err.splitlines()]
    assert all(line.startswith("moved: ") for line in captured.err.splitlines())
    assert [path for path, _ in moves] == PADDING_MOVED
    for path, change in moves:
        old, new = (float(v) for v in change.split(" -> "))
        assert abs(new - old) <= 1e-10 * abs(old), (path, old, new)
