"""Named verification suites behind ``dptool verify``.

Each suite builds its deterministic fixtures (fixed seed, fixed physical
boxes, radii and widths), runs the module's checks at the pinned
tolerances, and returns one ScanReport.  ``lattice_sizes(N)`` maps
``verify --grid-size N`` (default 128) to the lattices: N cells per axis
in 2-D, 2N in 1-D, 3N/8 in 3-D, and each suite's 2-D fixtures a fixed
fraction of N, so every spacing is a fixed multiple of 1/N.  Two fixtures
keep a fixed lattice: the 4-cell cell-centre check and the 256-cell 1-D
maximal indicator.  Exit-code policy: 0 when every check passes, 1 on a
check failure, 2 on bad input.

Each suite is a pure function of (sizes, seed), so ``run_suite("all")``
runs them in up to one process per CPU it may use, at most one per suite,
and its report bytes do not depend on that count.
"""

from __future__ import annotations

import math
import os
import pickle
import sys

import numpy as np

from . import exponents as ex
from . import gehring as ge
from . import harness as hn
from . import maximal as mx
from . import meanpoly as mp
from . import potentials as pt
from . import truncation as tr
from . import whitney as wh
from .corpus import fourier_corpus
from .grid import (
    GridFunction,
    _ratio,
    ball,
    box,
    create_grid,
    derivative_norm,
    integrate,
    partial_derivative,
    weighted_average,
)
from .reporting import Check, ScanReport
from .weights import Weight, estimate_seminorm, regularize

SUITE_NAMES = (
    "grid", "weights", "exponents", "maximal", "potentials",
    "meanpoly", "whitney", "truncation", "gehring", "pipeline", "all",
)

DEFAULT_GRID_SIZE = 128


def lattice_sizes(grid_size: int) -> dict:
    """Cells per axis of the 1-, 2- and 3-D suite lattices at ``--grid-size``."""
    return {1: 2 * grid_size, 2: grid_size, 3: 3 * grid_size // 8}


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


def unit_box(n: int):
    return box([-0.5] * n, [0.5] * n)


def smooth_u2(size: int) -> GridFunction:
    return create_grid(unit_box(2), size,
                       lambda p: np.sin(4 * p[:, 0]) * np.cos(3 * p[:, 1]) + 0.3 * p[:, 0] ** 2)


def power_weight(size: int, alpha: float) -> GridFunction:
    return create_grid(unit_box(2), size, lambda p: np.linalg.norm(p, axis=1) ** alpha)


def model_config() -> ex.ExponentConfig:
    return ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)


def truncation_fixture(size: int):
    """Spiked model data whose bad set survives the full level sweep.

    Hand-picked feasible exponent block (delta0 = 0.8 needs alpha = 3) and
    a narrow data spike of fixed physical width, so the gauge peak beats
    the level floor by more than a factor four at the default 128^2.  Not
    at every resolution: at 64^2, 80^2, 96^2 and 98^2 the bad set is empty
    at four times the floor.
    """
    cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=3.0)
    der = ex.make_derived(cfg, {"p": (2.5,), "q": (2.5,)}, delta0=0.8)
    u = smooth_u2(size)
    w = Weight(a=power_weight(size, 3.0), alpha=3.0)
    data = tr.default_data(u, cfg)
    sig = 0.75 / 128  # fixed physical width: 3/4 cell at the base resolution
    data["h"][("p", 0)] = create_grid(
        unit_box(2), size, lambda p: 1e4 * np.exp(-(p[:, 0] ** 2 + p[:, 1] ** 2) / (2 * sig**2))
    )
    d1 = (1.0 + der.delta0) / 2.0
    tc = tr.TruncationConfig(center=np.array([0.0, 0.0]), R=0.12, delta=d1)
    return u, w, cfg, der, tc, data


def random_masks(grid: GridFunction, count: int, *, seed: int):
    """Deterministic family of open masks: unions of random discs minus bars."""
    rng = np.random.default_rng(seed)
    centers = grid.cell_centers()
    masks = []
    for _ in range(count):
        m = np.zeros(grid.dims, dtype=bool)
        for _ in range(rng.integers(1, 4)):
            c = rng.uniform(-0.3, 0.3, size=grid.n)
            r = rng.uniform(0.1, 0.3)
            m |= ball(c, r).mask_for(grid)
        if rng.random() < 0.5:
            axis = int(rng.integers(0, grid.n))
            pos = rng.uniform(-0.2, 0.2)
            m &= np.abs(centers[..., axis] - pos) > 0.04
        # keep away from the box walls so the distance field is mask-driven
        interior = np.all(np.abs(centers) < 0.45, axis=-1)
        masks.append(m & interior)
    return masks


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_grid(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("grid", {"sizes": dict(sizes), "seed": seed})
    g1 = create_grid(box([0.0], [1.0]), 4, lambda p: p[:, 0])  # fixed: the centres are written out below
    rep.add(Check.from_bound("cell centers", float(np.abs(g1.flat() - np.array([0.125, 0.375, 0.625, 0.875])).max()), 0.0, 1e-15))
    n2 = sizes[2]
    one = create_grid(box([-1.0, -1.0], [1.0, 1.0]), n2, lambda p: np.ones(len(p)))
    area = float(integrate(one, ball([0.0, 0.0], 1.0))[0])
    rep.add(Check.from_bound("disc area vs pi", abs(area - math.pi) / math.pi, 0.02))
    u = create_grid(box([0.0], [1.0]), sizes[1], lambda p: p[:, 0] ** 2)
    d2 = partial_derivative(u, (2,))
    rep.add(Check.from_bound("second derivative exact on x^2", float(np.abs(d2.scalar() - 2).max()), 1e-9))
    lin = create_grid(unit_box(2), n2, lambda p: p[:, 0] + 2 * p[:, 1])
    dn = derivative_norm(lin, 1)
    rep.add(Check.from_bound("gradient norm sqrt5", float(np.abs(dn.scalar() - math.sqrt(5)).max()), 1e-10))
    u3 = create_grid(unit_box(3), sizes[3], lambda p: p[:, 0] * p[:, 1])
    d3 = partial_derivative(u3, (1, 1, 0))
    rep.add(Check.from_bound("3d mixed derivative exact", float(np.abs(d3.scalar() - 1.0).max()), 1e-9))
    eta = u.with_values(np.where(u.axis_centers(0) > 0.5, 1.0, 0.0)[..., None])
    wavg = weighted_average(create_grid(box([0.0], [1.0]), sizes[1], lambda p: p[:, 0]), None, eta)
    rep.add(Check.from_bound("weighted average x on (1/2,1)", abs(float(wavg[0]) - 0.75), 2.0 / sizes[1]))
    return rep


def suite_weights(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("weights", {"sizes": dict(sizes), "seed": seed})
    n2 = 3 * sizes[2] // 4
    a = power_weight(n2, 0.5)
    est, div = estimate_seminorm(a, 0.5)
    rep.add(Check.from_bound("power weight seminorm near 1", est, 1.0, 1e-6))
    rep.add(Check("power weight not diverging", "pass" if not div else "fail"))
    at = regularize(a, 0.5, diverging=div)
    rep.add(Check("regularized below original", "pass" if bool(np.all(at.scalar() <= a.scalar())) else "fail"))
    est2, _ = estimate_seminorm(at, 0.5)
    rep.add(Check.from_bound("regularized seminorm <= 2^alpha", est2, 2**0.5, 1e-6))
    att = regularize(at, 0.5, diverging=False)
    rep.add(Check.from_bound("idempotence", float(np.abs(att.scalar() - at.scalar()).max()), 1e-10))
    step = create_grid(box([-1.0], [1.0]), sizes[1], lambda p: (p[:, 0] > 0).astype(float))
    _est3, div3 = estimate_seminorm(step, 1.5)
    rep.add(Check("step weight diverges", "pass" if div3 else "fail"))
    rep.constants["seminorm_raw"] = est
    rep.constants["seminorm_regularized"] = est2
    return rep


def suite_exponents(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("exponents", {"seed": seed})
    cfg = model_config()
    checks = ex.validate(cfg)
    rep.add(Check("model config validates", "pass" if ex.validation_passes(checks) else "fail"))
    der = ex.derive(cfg)
    bad = [c.name for c in ex.check_derived(cfg, der) if not c.ok]
    rep.add(Check("derived block re-validates", "pass" if not bad else "fail", detail=",".join(bad[:4])))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0, n - 0.5))
        q = float(rng.uniform(p, n - 1e-3))
        alpha = float(rng.uniform(0.1, 3.0))
        gap = ex.riesz_gap(p, q, n, alpha)
        worst = max(worst, gap["gap_identity_residual"], gap["embedding_residual"])
        g = ex.select_gammas(ex.ExponentConfig(n=n, m=1, p=p, q=q, alpha=max(alpha, (q / p - 1) * n + 1e-3)))
        for r in ("p", "q"):
            rv = p if r == "p" else q
            for ell in range(2):
                s_hat, t_hat, gam = g["s_hat"][r][ell], g["t_hat"][r][ell], g["gamma"][r][ell]
                worst = max(worst, abs((0 if math.isinf(s_hat) else 1 / s_hat) + 1 / gam + 1 / ex.holder_conjugate(rv) - 1))
                worst = max(worst, abs(1 / t_hat + 1 / gam - 1))
    rep.add(Check.from_bound("identities on random tuples", worst, 1e-14))
    rep.constants["derived"] = der.as_dict()
    return rep


def suite_maximal(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("maximal", {"sizes": dict(sizes), "seed": seed})
    # fixed: the 2h bound needs the optimal radius 2 on the maximal function's radius ladder
    u1 = create_grid(box([-4.0], [4.0]), 256, lambda p: (np.abs(p[:, 0]) <= 1.0).astype(float))
    M = mx.maximal_function(u1, mx.MaximalSpec())
    x = u1.axis_centers(0)
    val = float(M.scalar()[int(np.argmin(np.abs(x - 3.0)))])
    rep.add(Check.from_bound("1d indicator M f(3) vs 1/2", abs(val - 0.5), 2 * u1.spacing))
    corpus = fourier_corpus(2, 8, 3 * sizes[2] // 4, seed=seed)
    beta = 1.0
    worst_comp = mx.composition_report(corpus, beta)  # first: the sandwich's lists are not yet held
    worst_sw = 0.0
    uncentered = [M.scalar() for M in mx.maximal_stack(corpus, [mx.MaximalSpec()] * len(corpus))]
    centered = [M.scalar() for M in mx.maximal_stack(corpus, [mx.MaximalSpec(mode="centered")] * len(corpus))]
    for Munc, Mcen in zip(uncentered, centered):
        if np.any(Munc < Mcen - 1e-12):
            worst_sw = math.inf
        worst_sw = max(worst_sw, mx._ratio_sup(Munc, Mcen))
    rep.add(Check.from_bound("sandwich upper 2^n", worst_sw, 2.0**2, 0.05))
    rep.add(Check.from_bound("composition vs propagated bound", worst_comp, mx.composition_bound(2, beta)))
    rep.constants["composition_sup"] = worst_comp
    rep.constants["sandwich_sup"] = worst_sw
    return rep


def suite_potentials(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("potentials", {"sizes": dict(sizes), "seed": seed})
    n1 = sizes[1]
    f1 = create_grid(box([-1.0], [1.0]), n1, lambda p: np.ones(len(p)))
    B1 = ball([0.0], 1.0)
    pot = pt.riesz_potential(f1, pt.PotentialSpec(gamma=0.5, region=B1))
    mid = float(pot.scalar()[n1 // 2])
    rep.add(Check.from_bound("1d riesz closed form", abs(mid - 4.0) / 4.0, 0.01))

    size2 = sizes[2] // 2
    corpus = fourier_corpus(2, 20, size2, lo=-0.5, hi=0.5, seed=seed)
    B = ball([0.0, 0.0], 0.45)
    eta = corpus[0].with_values(np.ones(corpus[0].dims)[..., None])
    a = power_weight(size2, 0.5)
    at = regularize(a, 0.5, diverging=False)
    w = Weight(a=at, alpha=0.5)
    u0s = []  # each field minus its eta-mean on B, so the pointwise bounds' premises hold
    for f in corpus:
        P = mp.fit(f, B, eta, 1, np.array([0.0, 0.0]))
        u0s.append(f.with_values(f.values - P.evaluate(f.cell_centers().reshape(-1, 2)).reshape(f.dims + (1,))))
    sides = [pt.sobolev_poincare_report(u0, w, 2.0, 2.2, B, eta, 1, 2.2, 0.45) for u0 in u0s]
    ratios = [_ratio(lhs, rhs_weighted + rhs_scaling) for lhs, rhs_weighted, rhs_scaling in sides]
    rep.add(Check.from_bound("sobolev-poincare corpus sup ratio finite", max(ratios), math.inf))
    rep.constants["sp_corpus_max_ratio"] = max(ratios)
    st = pt.strong_type_report(corpus[0], 2.0, 0.9, B)
    rep.add(Check.from_bound("strong type ratio finite", st, math.inf))
    rep.constants["strong_type_ratio"] = st
    rep.add(Check.from_bound("pointwise riesz bound finite", pt.pointwise_riesz_bound_check(u0s[0], B, eta), math.inf))
    rep.add(Check.from_bound("hedberg bound finite", mx.hedberg_report(u0s[0], 1, B, eta, 0.45), math.inf))
    # riesz_gap needs q < n; [w]_alpha <= 2^alpha is what suite_weights holds regularize to
    split, split_ref = pt.weighted_split_check(corpus[0], w, 1.2, 1.5, B, 0.45, 2**0.5)
    rep.add(Check.from_bound("weighted split vs reference constant", split, split_ref, 1e-9))
    weighted_hedberg = mx.weighted_hedberg_report(corpus[0], w, 2.2, 0.2, 1, B, 0.45)
    rep.add(Check.from_bound("weighted hedberg bound finite", weighted_hedberg, math.inf))
    return rep


def suite_meanpoly(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("meanpoly", {"sizes": dict(sizes), "seed": seed})
    n1 = sizes[1]
    u = create_grid(box([-1.0], [1.0]), n1, lambda p: p[:, 0] ** 2)
    eta = u.with_values(np.ones(u.dims)[..., None])
    # every cell center lies within 1 - h/2 of 0: the ball holds the lattice
    P = mp.fit(u, ball([0.0], 1.0), eta, 2, np.array([0.0]))
    rep.add(Check.from_bound("u=x^2 constant term vs 1/3", abs(float(P.coeffs[(0,)][0]) - 1.0 / 3.0), 1e-4))
    rep.add(Check.from_bound("u=x^2 slope term", abs(float(P.coeffs[(1,)][0])), 1e-10))
    worst = 0.0
    ball_B = ball([0.0, 0.0], 0.4)
    for m in (2, 3):
        for k, f in enumerate(fourier_corpus(2, 5, sizes[2] // 2, lo=-0.5, hi=0.5, seed=seed + m)):
            eta2 = f.with_values(np.ones(f.dims)[..., None])
            Pf = mp.fit(f, ball_B, eta2, m, np.array([0.0, 0.0]))
            worst = max(worst, mp.moment_residual(Pf, f, ball_B, eta2))
            if k > 0:  # the polynomial's bounds run on each m's first field
                continue
            coeff = mp.coefficient_bounds_report(Pf, f, ball_B, eta2, 0.4)
            rep.add(Check.from_bound(f"m={m} coefficient bound at order m-1 vs 1", abs(coeff[m - 1] - 1.0), 1e-12))
            rep.add(Check.from_bound(f"m={m} coefficient bounds below order m-1 finite",
                                     max(coeff[ell] for ell in range(m - 1)), math.inf))
            ibp = mp.integration_by_parts_report(Pf, f, ball_B, eta2, 0.4)
            rep.add(Check.from_bound(f"m={m} integration by parts finite", max(ibp.values()), math.inf))
            if m == 2:
                kernel = mp.kernel_bound_report(f, ball_B, eta2, 1, 0.4)
                rep.add(Check.from_bound("kernel bound finite", kernel, math.inf))
    rep.add(Check.from_bound("moment residuals corpus", worst, 1e-8))
    rep.constants["moment_residual_max"] = worst
    return rep


def suite_whitney(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("whitney", {"sizes": dict(sizes), "seed": seed})
    grid = create_grid(unit_box(2), 5 * sizes[2] // 8, lambda p: np.zeros(len(p)))
    masks = random_masks(grid, 10, seed=seed)
    overlap_max = 0
    psum_err = 0.0
    p3 = None
    for i, m in enumerate(masks):
        if not m.any():
            continue
        cov = wh.cover(grid, m, R=1.0)
        chk = wh.verify_cover(cov, grid, m, pair_samples=16)
        for key in ("W1", "W2", "W3", "W4", "W5"):
            if not chk[key]:
                rep.add(Check(f"mask{i} {key}", "fail"))
        overlap_max = max(overlap_max, chk["overlap_max"])
        pou = wh.PartitionOfUnity(cov)
        if p3 is None:  # (P3) on the first cover, whose bumps overlap
            p3 = wh.pou_derivative_bound_report(pou, 1)
        cells, psis, _ = pou.psi_grid(grid)
        total = np.zeros(int(np.prod(grid.dims)))
        np.add.at(total, np.concatenate(cells), np.concatenate(psis))
        covered = m.reshape(-1)
        psum_err = max(psum_err, float(np.abs(total[covered] - 1.0).max()))
    rep.add(Check.from_bound("partition sums to one", psum_err, 1e-10))
    rep.add(Check.from_bound("overlap constant", float(overlap_max), 256.0))
    rep.constants["overlap_max"] = overlap_max
    rep.add(Check.from_bound("(P3) order 0 vs 1", abs(p3[0] - 1.0), 1e-12))
    rep.add(Check.from_bound("(P3) order 1 finite", p3[1], math.inf))
    return rep


def suite_truncation(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("truncation", {"sizes": dict(sizes), "seed": seed})
    u, w, cfg, der, tc, data = truncation_fixture(sizes[2])
    gs = tr.assemble_g(u, w, cfg, der, tc, data=data)
    floor = tr.lambda_floor(gs, u, tc)
    rep.add(Check("bad set inside 4R ball", "pass" if floor["containment"] else "fail"))
    rep.constants["lambda0"] = floor["lambda0"]
    rep.constants["delta"] = gs.delta
    rep.constants["delta0"] = gs.delta0
    rep.constants["smallness_radius_data"] = tr.smallness_radius(u, cfg, der)
    rep.constants["exponents"] = der.as_dict()
    c1_series = {}
    for mult in (1.1, 2.0, 4.0):
        tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lambda_mult=mult, delta=tc.delta)
        res = tr.truncate(u, w, cfg, der, tcm, data=data, goodset=gs)
        bit = bool((res.v_lambda.values[res.good_mask] == res.v.values[res.good_mask]).all())
        rep.add(Check(f"bitwise on good set at {mult}x", "pass" if bit else "fail"))
        rep.add(Check(f"bad set nonempty at {mult}x", "pass" if res.bad_mask.any() else "fail"))
        for key, val in tr.derivative_bounds_report(res).items():
            c1_series.setdefault(key, []).append(val)
        rep.add(Check.from_bound(f"oscillation finite at {mult}x", max(tr.oscillation_report(res).values()), math.inf))
        if mult == 1.1:
            adm = tr.admissibility_report(res)
            rep.constants["campanato"] = {str(k): v for k, v in adm.items()}
            rep.add(Check.from_bound("campanato ratios finite", max(adm.values()), math.inf))
    drift = 0.0
    for key, series in c1_series.items():
        for a, b in zip(series, series[1:]):
            if a > 0:
                drift = max(drift, (b - a) / a)
    rep.add(Check.from_bound("derivative constants do not grow under lambda doubling", drift, 0.25))
    rep.constants["c1_series"] = {str(k): v for k, v in c1_series.items()}
    # lambda above the supremum: global bitwise equality
    tcg = tr.TruncationConfig(center=tc.center, R=tc.R, lam=float(gs.G.scalar().max()) * 2.0, delta=tc.delta)
    resg = tr.truncate(u, w, cfg, der, tcg, data=data, goodset=gs)
    rep.add(Check("lambda above sup: v_lambda == v", "pass" if np.array_equal(resg.v_lambda.values, resg.v.values) else "fail"))
    return rep


def suite_gehring(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("gehring", {"sizes": dict(sizes), "seed": seed})
    cert = ge.gehring_constants(1, 1.0, 0.5, 0.5)
    exact = cert.d == 0.75 and cert.c1 == 10.0 and cert.c_star == 1000.0 and cert.eps_max == 5e-4
    rep.add(Check("appendix constants exact", "pass" if exact else "fail"))
    rep.add(Check.from_bound("iteration c(1/2,0) vs 2", abs(ge.iteration_constant(0.5, 0.0) - 2.0), 1e-12))
    rep.add(Check.from_bound("iteration c(1/2,1) vs 16", abs(ge.iteration_constant(0.5, 1.0) - 16.0), 1e-12))
    stars = [ge.gehring_constants(2, 2.0, 0.5, e).c_star for e in np.linspace(0.05, 1.0, 20)]
    rep.add(Check("c* monotone in eps0", "pass" if all(a < b for a, b in zip(stars, stars[1:])) else "fail"))
    h = create_grid(box([0.0], [1.0]), sizes[1], lambda p: p[:, 0])
    rep.add(Check.from_bound("layer cake residual", ge.layer_cake_check(h, 0.5, nodes=10000), 1e-6))
    s, kappa = 0.5, 0.5
    cert2 = ge.gehring_constants(2, 2.0 * (3**s * (2 / (2 - s)) * ((2 - s * kappa) / 2) ** (1 / kappa)), kappa, 0.5, R0=0.2)
    f1 = create_grid(box([-1.0, -1.0], [1.0, 1.0]), sizes[2],
                     lambda p: (np.linalg.norm(p, axis=1) + 1e-12) ** -s)
    f2 = create_grid(box([-1.0, -1.0], [1.0, 1.0]), sizes[2], lambda p: np.full(len(p), 0.01))
    out = ge.gehring_verify(f1, f2, cert2, ge._ball_pair_family(f1, ball([0.0, 0.0], 1.0), cert2.R0))
    rep.add(Check.from_bound("premise pass fraction", 1.0 - out["premise_pass_fraction"], 0.05))
    rep.add(Check.from_bound("conclusion constant finite", out["conclusion_constant"], math.inf))
    rep.constants["gehring_verify"] = {k: out[k] for k in ("pairs", "premise_pass_fraction", "A_required_max", "conclusion_constant")}
    # h = C2/(R1 - s)^gamma meets the iteration lemma's premise with C1 = 1
    R0, R1, gamma, tau, C2 = 0.5, 1.5, 1.0, 0.3, 2.0
    radii = np.linspace(R0, R1 * 0.95, 40)
    it = ge.iteration_lemma_check(C2 / (R1 - radii) ** gamma, radii, tau, 1.0, C2, gamma)
    rep.add(Check.from_bound("iteration lemma premise", it["premise"], 1.0, 1e-12))
    rep.add(Check.from_bound("iteration lemma conclusion", it["conclusion"], 1.0, 1e-12))
    return rep


def suite_pipeline(sizes: dict, seed: int) -> ScanReport:
    rep = ScanReport("pipeline", {"sizes": dict(sizes), "seed": seed})
    size = 3 * sizes[2] // 4
    u = smooth_u2(size)
    w = Weight(a=regularize(power_weight(size, 0.5), 0.5, diverging=False), alpha=0.5)
    cfg = model_config()
    omega = ball([0.0, 0.0], 0.48)
    out = hn.self_improve(u, w, cfg, omega, R0=0.1)
    rep.add(Check("all stages pass", "pass" if out["status"] == "pass" else "fail",
                  detail=str(out.get("failed_stage"))))
    eps = out["stages"]["certificate"]["eps_max"]
    rep.add(Check.from_bound("eps_max positive", -eps, 0.0))
    rep.constants["certificate"] = out["stages"]["certificate"]
    rep.constants["reverse_holder_constant"] = out["stages"]["reverse_holder"]["constant"]
    rep.constants["kappa"] = out["stages"]["reverse_holder"]["kappa"]
    rep.constants["exponents"] = out["stages"]["exponents"]
    # degenerate limit: kappa -> 1 forces eps_max -> 0; A and eps0 do not depend on kappa
    c = out["stages"]["certificate"]
    eps2 = ge.gehring_constants(c["n"], c["A"], 1 - 1e-9, c["eps0"], R0=c["R0"]).eps_max
    rep.add(Check.from_bound("kappa->1 collapses eps_max", eps2, 1e-9))
    return rep


_SUITES = {
    "grid": suite_grid,
    "weights": suite_weights,
    "exponents": suite_exponents,
    "maximal": suite_maximal,
    "potentials": suite_potentials,
    "meanpoly": suite_meanpoly,
    "whitney": suite_whitney,
    "truncation": suite_truncation,
    "gehring": suite_gehring,
    "pipeline": suite_pipeline,
}


def _run_each(keys, sizes: dict, seed: int) -> list:
    """Each named suite's report, in ``keys`` order, from the caller and up
    to one forked child per further CPU it may use, each claiming the next
    index from a pipe of one byte per key until none is left.  The first
    suite in order that raised is re-raised; no child outlives the call."""
    # without os.sched_getaffinity (Windows, macOS) the caller runs every suite; with it comes os.fork
    workers = min(len(os.sched_getaffinity(0)), len(keys)) if hasattr(os, "sched_getaffinity") else 1
    claims, fill = os.pipe()
    os.write(fill, bytes(range(len(keys))))
    os.close(fill)

    def run_claimed() -> dict:
        ran = {}
        for (i,) in iter(lambda: os.read(claims, 1), b""):
            try:
                ran[i] = _SUITES[keys[i]](sizes=sizes, seed=seed)
            except Exception as exc:
                ran[i] = exc
        return ran

    children = {}  # pid -> read end of the pipe that brings its results back
    finished = False
    try:
        for stream in (sys.stdout, sys.stderr):
            stream.flush()  # so that nothing buffered before the fork is written twice
        for _ in range(workers - 1):
            back, send = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(send, "wb") as fh:
                        fh.write(pickle.dumps(run_claimed()))
                    for stream in (sys.stdout, sys.stderr):
                        stream.flush()
                finally:
                    os._exit(0)
            os.close(send)
            children[pid] = back
        ran = run_claimed()
        for pid, back in children.items():
            with open(back, "rb", closefd=False) as fh:
                if not (data := fh.read()):
                    raise RuntimeError(f"suite worker {pid} ended before sending its reports")
            ran.update(pickle.loads(data))
        finished = True
    finally:
        os.close(claims)
        for pid, back in children.items():
            os.close(back)
            if not finished:
                import signal  # here alone, so that a cold start does not load it
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i in range(len(keys)):
        if isinstance(ran[i], Exception):
            raise ran[i]
    return [ran[i] for i in range(len(keys))]


def run_suite(name: str, seed: int, sizes: dict):
    """Run one named suite (or 'all') at ``sizes``, the lattice size per
    dimension; returns a ScanReport."""
    sizes = dict(sizes)
    if name == "all":
        combined = ScanReport("all", {"sizes": sizes, "seed": seed})
        keys = SUITE_NAMES[:-1]
        for key, sub in zip(keys, _run_each(keys, sizes, seed)):
            for c in sub.checks:
                combined.add(Check(f"{key}: {c.name}", c.status, c.measured, c.bound, c.tolerance, c.detail))
            combined.constants[key] = sub.constants
        return combined
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return _SUITES[name](sizes=sizes, seed=seed)
