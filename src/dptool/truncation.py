"""Lipschitz truncation on the grid.

Pipeline: build the gauge fields g and G from iterated maximal functions of
the double-phase integrands and the data terms, fix the level floor, take
the good set where G stays below the level, Whitney-cover its complement,
and replace the localized deviation v = (u - P) eta there by the partition
blend of per-ball weighted mean-value polynomials, each fitted and blended
in one loop over the Whitney balls.  The result agrees with
v bitwise on the good set, is supported in the 4R-ball, and carries
certified derivative, oscillation, transfer and mean-oscillation bounds,
all measured and recorded per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import DerivedExponents, ExponentConfig
from .grid import (
    GridError,
    GridFunction,
    _ball_cells,
    _window_centers,
    ball,
    derivative_norm,
    mean_over,
    multi_indices,
    multi_indices_upto,
    partial_derivative,
)
from .maximal import MaximalSpec, _shift_index, maximal_function, maximal_stack
from .meanpoly import fit, fit_on_cells
from .weights import Weight, double_phase_field
from .whitney import PartitionOfUnity, WhitneyCover, cover, smoothstep

__all__ = [
    "TruncationConfig",
    "GoodSetFields",
    "TruncationResult",
    "smooth_cutoff",
    "default_data",
    "scan_delta",
    "assemble_g",
    "smallness_radius",
    "global_majorant",
    "lambda_floor",
    "level_set",
    "truncate",
    "derivative_bounds_report",
    "oscillation_report",
    "polynomial_transfer_report",
    "admissibility_report",
]


@dataclass(frozen=True)
class TruncationConfig:
    """Geometry and level selection for one truncation run."""

    center: np.ndarray
    R: float
    lambda_mult: float = 1.5
    lam: float | None = None  # explicit level overrides lambda_mult
    delta: float | None = None  # defaults to scan_delta(delta0)

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.R <= 0:
            raise GridError("ball radius must be positive")


@dataclass
class GoodSetFields:
    """The gauge g, its scaled maximal G, and the data term F0."""

    g: GridFunction
    G: GridFunction
    F0: GridFunction
    dnorms: dict
    H: dict
    psi: GridFunction
    delta: float
    delta0: float


@dataclass
class TruncationResult:
    v: GridFunction
    v_lambda: GridFunction
    good_mask: np.ndarray
    bad_mask: np.ndarray
    cover: WhitneyCover
    pou: PartitionOfUnity
    local_polys: list
    lam: float
    lambda0: float
    config: TruncationConfig
    cfg: ExponentConfig
    derived: DerivedExponents
    weight: Weight
    ball_cells: list
    ball_psi: list


# ---------------------------------------------------------------------------
# cutoffs and data defaults
# ---------------------------------------------------------------------------


def smooth_cutoff(grid: GridFunction, center, inner: float, outer: float) -> GridFunction:
    """Radial C-infinity cutoff: 1 inside radius ``inner``, 0 outside ``outer``."""
    if not (0 < inner < outer):
        raise GridError("need 0 < inner < outer")
    d = np.linalg.norm(grid.cell_centers() - np.asarray(center, dtype=float), axis=-1)
    return grid.with_values(_cutoff_profile(d, inner, outer)[..., None])


def _cutoff_profile(d: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """The radial profile of ``smooth_cutoff`` at distances ``d`` from its center."""
    return 1.0 - smoothstep((d - inner) / (outer - inner))


def default_data(grid: GridFunction, cfg: ExponentConfig) -> dict:
    """Model-system data: all lower-order terms zero, top-order g identically 1."""
    zero = grid.with_values(np.zeros(grid.dims)[..., None])
    one = grid.with_values(np.ones(grid.dims)[..., None])
    data = {
        "f_p": zero,
        "f_q": zero,
        "g": {},
        "h": {},
    }
    for r in ("p", "q"):
        for ell in range(cfg.m + 1):
            data["g"][(r, ell)] = one if ell == cfg.m else zero
            data["h"][(r, ell)] = zero
    return data


# ---------------------------------------------------------------------------
# gauge assembly
# ---------------------------------------------------------------------------


def _maximal_chains(grid: GridFunction, chains) -> list[np.ndarray]:
    """M^times of each ``(vals, times, beta)`` chain's field, then one
    fractional application M_beta where beta > 0: one stacked maximal pass
    per iteration level, plus one over the fractional steps."""
    outs = maximal_stack([grid.with_values(vals[..., None]) for vals, _t, _b in chains],
                         [MaximalSpec(iterations=times) for _v, times, _b in chains])
    frac = [i for i, (_v, _t, beta) in enumerate(chains) if beta > 0.0]
    if frac:
        fracs = maximal_stack([outs[i] for i in frac], [MaximalSpec(beta=chains[i][2]) for i in frac])
        for i, out in zip(frac, fracs):
            outs[i] = out
    return [out.scalar() for out in outs]


def scan_delta(delta0: float) -> float:
    """Default energy exponent: 90% of the way from (1+delta0)/2 to 1."""
    d1 = (1.0 + delta0) / 2.0
    return d1 + 0.9 * (1.0 - d1)


def _fractional_chains(dnorms: dict, cfg: ExponentConfig, derived: DerivedExponents, cut) -> list:
    """F0's maximal chains: M_beta_l M^(2l+1)(|D^l u| cut) for l <= m."""
    return [(dnorms[ell].scalar() * cut, 2 * ell + 1, derived.beta_ell[ell]) for ell in range(cfg.m + 1)]


def _majorant_chains(dnorms: dict, H: dict, cfg: ExponentConfig, derived: DerivedExponents,
                     cut, box_cut) -> list:
    """The maximal chains of F: F0's fractional chains, then
    M^(2l+1)(H_l^delta0 box_cut) for l < m."""
    box = [(H[ell].scalar() ** derived.delta0 * box_cut, 2 * ell + 1, 0.0) for ell in range(cfg.m)]
    return _fractional_chains(dnorms, cfg, derived, cut) + box


def _F0_terms(cfg: ExponentConfig, derived: DerivedExponents, data: dict, fractional: list):
    """F0's terms one field at a time, so no list of fields is held: the data
    powers, then each output of ``_fractional_chains`` to the gamma_q,l."""
    for r in ("p", "q"):
        for ell in range(cfg.m):
            s_hat = derived.s_hat[r][ell]
            if not math.isinf(s_hat):
                yield data["g"][(r, ell)].scalar() ** s_hat
        for ell in range(cfg.m + 1):
            yield data["h"][(r, ell)].scalar() ** derived.t_hat[r][ell]
    for ell, out in enumerate(fractional):
        yield out ** derived.gamma["q"][ell]


def _majorant(weight: Weight, cfg: ExponentConfig, derived: DerivedExponents, data: dict, outs: list):
    """F from the outputs of ``_majorant_chains``: 1 + f_p + a f_q, then F0's
    terms one by one (not F0 as a whole, which would change the summation
    order and so the bits), then the whole-box terms."""
    F = 1.0 + (data["f_p"].scalar() + weight.a.scalar() * data["f_q"].scalar())
    for term in _F0_terms(cfg, derived, data, outs[:cfg.m + 1]):
        F += term
    for out in outs[cfg.m + 1:]:
        F += out ** (1.0 / derived.delta0)
    return F


def assemble_g(
    u: GridFunction,
    weight: Weight,
    cfg: ExponentConfig,
    derived: DerivedExponents,
    tc: TruncationConfig,
    data: dict | None = None,
) -> GoodSetFields:
    """Build g = (sum_l M^(2l+1)(H_l^delta0 psi) + F0^delta0) psi, with psi
    the cutoff from 2R to 3R, G = M(g)^(1/delta0) and F0, the sum of
    ``_F0_terms`` with the fractional terms cut by psi.  The scans' majorant
    F and the data smallness radius are built by ``global_majorant`` and
    ``smallness_radius``; truncation reads neither.
    """
    if data is None:
        data = default_data(u, cfg)
    d0 = derived.delta0
    delta1 = (1.0 + d0) / 2.0
    delta = tc.delta if tc.delta is not None else scan_delta(d0)
    if not (delta1 <= delta < 1.0):
        raise GridError(f"delta must lie in [{delta1}, 1)")

    psi = smooth_cutoff(u, tc.center, 2.0 * tc.R, 3.0 * tc.R)
    psi_vals = psi.scalar()

    ells = range(cfg.m + 1)
    dnorms = {ell: derivative_norm(u, ell) for ell in ells}
    H = {ell: double_phase_field(dnorms[ell], weight, derived, cfg.q, ell) for ell in ells}

    # every maximal chain at once: the fractional terms of F0, then those of g
    outs = _maximal_chains(u, [
        *_fractional_chains(dnorms, cfg, derived, psi_vals),
        *[(H[ell].scalar() ** d0 * psi_vals, 2 * ell + 1, 0.0) for ell in ells],
    ])
    F0_vals = sum(_F0_terms(cfg, derived, data, outs[:cfg.m + 1]), np.zeros(u.dims))
    g = u.with_values(((sum(outs[cfg.m + 1:], np.zeros(u.dims)) + F0_vals**d0) * psi_vals)[..., None])
    G_vals = maximal_function(g, MaximalSpec()).scalar() ** (1.0 / d0)
    return GoodSetFields(g=g, G=u.with_values(G_vals[..., None]), F0=u.with_values(F0_vals[..., None]),
                         dnorms=dnorms, H=H, psi=psi, delta=delta, delta0=d0)


def smallness_radius(u: GridFunction, cfg: ExponentConfig, derived: DerivedExponents) -> float:
    """The data's smallness radius: the least of (1 - 1e-9)/2 and
    (1/(K_l + 1))^(1/e_l) over the orders l with e_l = alpha/q - n(1/gamma_p,l
    - 1/gamma_q,l)/delta0 > 0, K_l a power of the norm of M^(2l+1)|D^l u|."""
    d0 = derived.delta0
    ells = range(cfg.m + 1)
    outs = _maximal_chains(u, [(derivative_norm(u, ell).scalar(), 2 * ell + 1, 0.0) for ell in ells])
    R0 = 0.5 * (1.0 - 1e-9)
    for ell, m_field in zip(ells, outs):
        gp, gq = derived.gamma["p"][ell], derived.gamma["q"][ell]
        expo = cfg.alpha / cfg.q - cfg.n * (1.0 / (gp * d0) - 1.0 / (gq * d0))
        norm = float(np.sum(m_field.reshape(-1) ** (gp * d0)) * u.cell_volume) ** (1.0 / (gp * d0))
        K = norm ** (1.0 - gp / gq)
        if K + 1.0 > 1.0 and expo > 0:
            R0 = min(R0, (1.0 / (K + 1.0)) ** (1.0 / expo))
    return R0


def global_majorant(
    u: GridFunction,
    weight: Weight,
    cfg: ExponentConfig,
    derived: DerivedExponents,
    omega_mask: np.ndarray,
) -> GridFunction:
    """Ball-independent majorant F for the energy scans.

    F0's terms plus the whole-box terms, with the domain indicator as the
    cut of every maximal term, so one fixed field dominates the data
    contribution of every scanned ball.
    """
    ref = np.asarray(omega_mask, dtype=bool)
    dnorms = {ell: derivative_norm(u, ell) for ell in range(cfg.m + 1)}
    H = {ell: double_phase_field(dnorms[ell], weight, derived, cfg.q, ell) for ell in range(cfg.m)}
    outs = _maximal_chains(u, _majorant_chains(dnorms, H, cfg, derived, ref, ref))
    return u.with_values(_majorant(weight, cfg, derived, default_data(u, cfg), outs)[..., None])


def lambda_floor(gs: GoodSetFields, grid: GridFunction, tc: TruncationConfig, probe_mults=(1.01,)) -> dict:
    """Level floor 6^n (avg_{B3R} G^delta)^(1/delta) + 6^n, with the
    containment check that above it the bad set stays inside the 4R-ball."""
    n = grid.n
    B3 = ball(tc.center, 3.0 * tc.R)
    avg = float(mean_over(gs.G, B3, power=gs.delta)[0])
    lam0 = 6.0**n * avg ** (1.0 / gs.delta) + 6.0**n
    G = gs.G.scalar()
    outside_4R = ~ball(tc.center, 4.0 * tc.R).mask_for(grid)
    containment = {}
    for mult in probe_mults:
        lam = mult * lam0
        outside = (G > lam) & outside_4R
        containment[mult] = not bool(outside.any())
    return {"lambda0": lam0, "containment": containment, "avg_G_delta": avg}


def level_set(gs_or_G, lam: float) -> dict:
    """Good-set mask {G <= lambda} with a boundary-cell (Jordan) report.

    The straddle fraction counts cells whose face neighborhood crosses the
    level; if perturbing the level by relative steps 2^-40 k (k <= 8)
    lowers it, the best perturbed level is used.
    """
    G = (gs_or_G.G if isinstance(gs_or_G, GoodSetFields) else gs_or_G).scalar()
    if lam <= 0:
        raise GridError("level must be positive")

    def straddle_fraction(level: float, stride: int = 1) -> float:
        good = (G[tuple(slice(None, None, stride) for _ in range(G.ndim))] <= level)[None]
        boundary = np.zeros_like(good)
        for a, b in map(_shift_index, np.eye(G.ndim, dtype=int)):
            cross = good[a] != good[b]
            boundary[a] |= cross
            boundary[b] |= cross
        return float(boundary.sum()) / boundary.size

    best_lam, best_frac, best_k = lam, straddle_fraction(lam), 0
    for k in range(1, 9):
        cand = lam * (1.0 + 2.0**-40 * k)
        frac = straddle_fraction(cand)
        if frac < best_frac:
            best_lam, best_frac, best_k = cand, frac, k
    coarse = straddle_fraction(best_lam, stride=2)
    return {
        "lambda": best_lam,
        "perturbation_steps": best_k,
        "good_mask": G <= best_lam,
        "straddle_fraction": best_frac,
        "straddle_fraction_coarse": coarse,
        "shrinks_under_refinement": bool(best_frac <= coarse + 1e-12),
    }


# ---------------------------------------------------------------------------
# the truncation itself
# ---------------------------------------------------------------------------


def truncate(
    u: GridFunction,
    weight: Weight,
    cfg: ExponentConfig,
    derived: DerivedExponents,
    tc: TruncationConfig,
    data: dict | None = None,
    goodset: GoodSetFields | None = None,
) -> TruncationResult:
    """Full truncation pipeline at one level."""
    if goodset is None:
        goodset = assemble_g(u, weight, cfg, derived, tc, data=data)
    floor = lambda_floor(goodset, u, tc)
    lam0 = floor["lambda0"]
    lam = tc.lam if tc.lam is not None else tc.lambda_mult * lam0
    if not lam0 < lam < math.inf:
        raise GridError(f"level {lam} must be finite and exceed the floor {lam0}")
    ls = level_set(goodset, lam)
    good = ls["good_mask"]
    bad = ~good
    lam = ls["lambda"]

    B2 = ball(tc.center, 2.0 * tc.R)
    eta = smooth_cutoff(u, tc.center, tc.R, 2.0 * tc.R)
    P = fit(u, B2, eta, cfg.m, tc.center)
    centers_flat = u.cell_centers().reshape(-1, u.n)  # v shares u's lattice
    pvals = P.evaluate(centers_flat).reshape(u.dims + (u.components,))
    v = u.with_values((u.values - pvals) * eta.scalar()[..., None])

    # per Whitney ball: fit v's weighted mean-value polynomial against the
    # normalized partition weight on the 3/4-ball cells, then blend it in
    cov = cover(u, bad, R=tc.R)
    pou = PartitionOfUnity(cov)
    cells, psis, _den = pou.psi_grid(v)
    dfields = {
        sig: partial_derivative(v, sig).values.reshape(-1, v.components)
        for sig in multi_indices_upto(v.n, cfg.m - 1)
    }
    vflat = v.values.reshape(-1, u.components)
    out = vflat.copy()
    polys = []
    for i, (cc, w) in enumerate(zip(cells, psis)):
        if len(cc) == 0 or w.sum() <= 0:
            polys.append(None)  # degenerate: no fit, and nothing to blend
            continue
        pts = centers_flat[cc]
        polys.append(fit_on_cells(pts, w, {sig: f[cc] for sig, f in dfields.items()}, cfg.m, cov.centers[i]))
        out[cc] -= (vflat[cc] - polys[i].evaluate(pts)) * w[:, None]
    v_lambda = u.with_values(out.reshape(u.dims + (u.components,)))

    return TruncationResult(
        v=v,
        v_lambda=v_lambda,
        good_mask=good,
        bad_mask=bad,
        cover=cov,
        pou=pou,
        local_polys=polys,
        lam=lam,
        lambda0=lam0,
        config=tc,
        cfg=cfg,
        derived=derived,
        weight=weight,
        ball_cells=cells,
        ball_psi=psis,
    )


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------


def derivative_bounds_report(res: TruncationResult) -> dict:
    """Measured constants of the two derivative bounds on the bad set.

    For every order pair k <= l:  |D^k v_lambda| <= c1 R^(l-k) lambda^(1/gamma_p,l)
    on the bad set, and a^(1/q) |D^k v_lambda| <= c2 R^(l-k) lambda^(1/gamma_q,l)
    on its intersection with the 2R-ball.
    """
    cfg, derived, tc = res.cfg, res.derived, res.config
    bad = res.bad_mask
    if not bad.any():
        return {"c1": {}, "c2": {}, "empty_bad_set": True}
    in2R = ball(tc.center, 2.0 * tc.R).mask_for(res.v)
    a_vals = res.weight.a.scalar()
    c1: dict = {}
    c2: dict = {}
    dnorm_cache = {k: derivative_norm(res.v_lambda, k).scalar() for k in range(cfg.m + 1)}
    for ell in range(cfg.m + 1):
        gp = derived.gamma["p"][ell]
        gq = derived.gamma["q"][ell]
        for k in range(ell + 1):
            dn = dnorm_cache[k]
            denom1 = tc.R ** (ell - k) * res.lam ** (1.0 / gp)
            c1[(ell, k)] = float(dn[bad].max()) / denom1
            sel = bad & in2R
            if sel.any():
                denom2 = tc.R ** (ell - k) * res.lam ** (1.0 / gq)
                c2[(ell, k)] = float((a_vals[sel] ** (1.0 / cfg.q) * dn[sel]).max()) / denom2
            else:
                c2[(ell, k)] = 0.0
    return {"c1": c1, "c2": c2, "empty_bad_set": False}


def oscillation_report(res: TruncationResult) -> dict:
    """Per-ball mean deviation of v from its local polynomial.

    avg_{3/4 B_i} |D^l v - D^l P_i| against r_i^(m-l) lambda^(1/p).
    """
    cfg = res.cfg
    cov = res.cover
    if len(cov) == 0:
        return {"max_ratio": {}, "balls": 0}
    centers_flat = res.v.cell_centers().reshape(-1, res.v.n)
    dfields = {
        sig: partial_derivative(res.v, sig).values.reshape(-1, res.v.components)
        for k in range(cfg.m + 1)
        for sig in multi_indices(res.v.n, k)
    }
    max_ratio = {ell: 0.0 for ell in range(cfg.m + 1)}
    for i in range(len(cov)):
        cc = res.ball_cells[i]
        if len(cc) == 0 or res.local_polys[i] is None:
            continue
        pts = centers_flat[cc]
        r_i = cov.radii[i]
        rows = {sig: f[cc] for sig, f in dfields.items()}
        for ell in range(cfg.m + 1):
            lhs = float(res.local_polys[i].derivative_norm_at(pts, ell, rows).mean())
            rhs = r_i ** (cfg.m - ell) * res.lam ** (1.0 / cfg.p)
            max_ratio[ell] = max(max_ratio[ell], lhs / rhs)
    return {"max_ratio": max_ratio, "balls": len(cov)}


def polynomial_transfer_report(res: TruncationResult) -> dict:
    """Neighbor-polynomial transfer: sup |d_sigma P_j - d_sigma Q_i| over the
    3/4-ball against r_i^(l-k) T_{l,i}, T_{l,i} = sup_{j in A_i} avg_{B_j} |D^l v|,
    on about 400 evenly spaced neighbor pairs."""
    cfg = res.cfg
    cov = res.cover
    if len(cov) == 0:
        return {"max_ratio": {}, "pairs": 0}
    centers_flat = res.v.cell_centers().reshape(-1, res.v.n)
    dnorm_v = {ell: derivative_norm(res.v, ell).scalar() for ell in range(cfg.m + 1)}

    # mean |D^l v| over each full ball; a ball is centred on a lattice cell
    # with r > 0, so it holds at least its own cell
    ball_means = np.zeros((len(cov), cfg.m + 1))
    for i in range(len(cov)):
        slices, _centers, _d2, (inside,) = _ball_cells(res.v, cov.centers[i], cov.radii[i])
        for ell in range(cfg.m + 1):
            ball_means[i, ell] = float(dnorm_v[ell][slices][inside].mean())

    pairs = [(i, int(j)) for i in range(len(cov)) for j in cov.neighbors[i] if int(j) != i]
    stride = max(1, len(pairs) // 400)
    max_ratio = {}
    exact = 0
    for i, j in pairs[::stride]:
        if res.local_polys[i] is None or res.local_polys[j] is None:
            continue
        cc = res.ball_cells[i]
        if len(cc) == 0:
            continue
        pts = centers_flat[cc]
        T = {ell: float(ball_means[list(cov.neighbors[i]), ell].max()) for ell in range(cfg.m + 1)}
        for sig in multi_indices_upto(res.v.n, cfg.m - 1):
            k = sum(sig)
            dPj = res.local_polys[j].differentiate(sig).evaluate(pts)
            dQi = res.local_polys[i].differentiate(sig).evaluate(pts)
            sup = float(np.abs(dPj - dQi).max())
            for ell in range(cfg.m + 1):
                denom = cov.radii[i] ** (ell - k) * T[ell]
                if denom > 0:
                    key = (ell, k)
                    ratio = sup / denom
                    max_ratio[key] = max(max_ratio.get(key, 0.0), ratio)
                elif sup == 0.0:
                    exact += 1
    return {"max_ratio": max_ratio, "pairs": len(pairs[::stride]), "exact_agreements": exact}


def admissibility_report(res: TruncationResult) -> dict:
    """Scaled mean oscillation of D^l v_lambda over a deterministic family of
    test balls (dyadic radii, centers on every 4th lattice cell per axis) against
    R^(m-l-1) lambda^(1/p)."""
    cfg, tc = res.cfg, res.config
    grid = res.v_lambda
    every_4th = (slice(None, None, 4),) * grid.n
    test_centers = _window_centers(grid, every_4th)[ball(tc.center, 2.0 * tc.R).mask_for(grid)[every_4th]]
    radii = [tc.R * 2.0**-j for j in range(1, 7)]

    # grid-shaped blocks: dims + (multi-indices, components)
    darrays = {
        ell: np.stack([partial_derivative(grid, sig).values for sig in multi_indices(grid.n, ell)], axis=-2)
        for ell in range(cfg.m)
    }
    max_ratio = {ell: 0.0 for ell in range(cfg.m)}
    for r in radii:
        if r < 2 * grid.spacing:
            continue
        for z in test_centers:
            slices, _centers, _d2, (inside,) = _ball_cells(grid, z, r)
            cnt = int(inside.sum())
            if cnt < 2:
                continue
            for ell in range(cfg.m):
                block = darrays[ell][slices][inside]
                mean = block.mean(axis=0)
                lhs = float(np.sqrt(np.sum((block - mean) ** 2, axis=(1, 2))).mean()) / r
                rhs = tc.R ** (cfg.m - ell - 1) * res.lam ** (1.0 / cfg.p)
                max_ratio[ell] = max(max_ratio[ell], lhs / rhs)
    return {"max_ratio": max_ratio, "test_centers": len(test_centers), "radii": radii}
