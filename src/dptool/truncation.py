"""Lipschitz truncation on the grid.

Pipeline: build the gauge fields g and G from iterated maximal functions of
the double-phase integrands and the data terms, fix the level floor, take
the good set where G stays below the level, Whitney-cover its complement,
and replace the localized deviation v = (u - P) eta there by the partition
blend of per-ball weighted mean-value polynomials, each fitted and blended
in one loop over the Whitney balls.  The result agrees with
v bitwise on the good set, is supported in the 4R-ball, and carries
certified derivative, oscillation and mean-oscillation bounds, all
measured and recorded per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import DerivedExponents, ExponentConfig
from .grid import (
    GridError,
    GridFunction,
    _ball_rows,
    _window_centers,
    ball,
    derivative_array,
    derivative_norm,
    mean_over,
)
from .maximal import MaximalSpec, maximal_function, maximal_stack
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
    "truncate",
    "derivative_bounds_report",
    "oscillation_report",
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
    """The scaled maximal G of the gauge g, with the exponents it was built at."""

    G: GridFunction
    delta: float
    delta0: float


@dataclass
class TruncationResult:
    v: GridFunction
    v_lambda: GridFunction
    good_mask: np.ndarray
    bad_mask: np.ndarray
    cover: WhitneyCover
    local_polys: list
    lam: float
    lambda0: float
    config: TruncationConfig
    cfg: ExponentConfig
    derived: DerivedExponents
    ball_cells: list


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
    """Build G = M(g)^(1/delta0) from the gauge
    g = (sum_l M^(2l+1)(H_l^delta0 psi) + F0^delta0) psi, with psi the
    cutoff from 2R to 3R and F0 the sum of ``_F0_terms`` with the
    fractional terms cut by psi.  The scans' majorant F and the data
    smallness radius are built by ``global_majorant`` and
    ``smallness_radius``; truncation reads neither.
    """
    if data is None:
        data = default_data(u, cfg)
    d0 = derived.delta0
    delta1 = (1.0 + d0) / 2.0
    delta = tc.delta if tc.delta is not None else scan_delta(d0)
    if not (delta1 <= delta < 1.0):
        raise GridError(f"delta must lie in [{delta1}, 1)")

    psi_vals = smooth_cutoff(u, tc.center, 2.0 * tc.R, 3.0 * tc.R).scalar()

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
    return GoodSetFields(G=u.with_values(G_vals[..., None]), delta=delta, delta0=d0)


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


def lambda_floor(gs: GoodSetFields, grid: GridFunction, tc: TruncationConfig) -> dict:
    """Level floor 6^n (avg_{B3R} G^delta)^(1/delta) + 6^n, with the
    containment flag: at 1.01 times the floor, and so at every level above
    it, the bad set stays inside the 4R-ball."""
    n = grid.n
    B3 = ball(tc.center, 3.0 * tc.R)
    avg = float(mean_over(gs.G, B3, power=gs.delta)[0])
    lam0 = 6.0**n * avg ** (1.0 / gs.delta) + 6.0**n
    outside_4R = ~ball(tc.center, 4.0 * tc.R).mask_for(grid)
    return {"lambda0": lam0, "containment": not bool(((gs.G.scalar() > 1.01 * lam0) & outside_4R).any())}


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
    with np.errstate(over="ignore"):
        extent = (np.asarray(u.dims) - 1) * u.spacing
        if not np.isfinite(np.sum(extent**2)):
            raise GridError(f"lattice extent {extent.tolist()} is too wide for the truncation: "
                            "squared distances across it are not finite")
    if goodset is None:
        goodset = assemble_g(u, weight, cfg, derived, tc, data=data)
    floor = lambda_floor(goodset, u, tc)
    lam0 = floor["lambda0"]
    lam = tc.lam if tc.lam is not None else tc.lambda_mult * lam0
    if not lam0 < lam < math.inf:
        raise GridError(f"level {lam} must be finite and exceed the floor {lam0}")
    good = goodset.G.scalar() <= lam
    bad = ~good

    B2 = ball(tc.center, 2.0 * tc.R)
    eta = smooth_cutoff(u, tc.center, tc.R, 2.0 * tc.R)
    P = fit(u, B2, eta, cfg.m, tc.center)
    centers_flat = u.cell_centers().reshape(-1, u.n)  # v shares u's lattice
    pvals = P.evaluate(centers_flat).reshape(u.dims + (u.components,))
    v = u.with_values((u.values - pvals) * eta.scalar()[..., None])

    # per Whitney ball: fit v's weighted mean-value polynomial against the
    # normalized partition weight on the 3/4-ball cells, then blend it in
    cov = cover(u, bad, R=tc.R)
    cells, psis, _den = PartitionOfUnity(cov).psi_grid(v)
    dfields = {sig: d.values.reshape(-1, v.components)
               for k in range(cfg.m) for sig, d in derivative_array(v, k).items()}
    vflat = v.values.reshape(-1, u.components)
    out = vflat.copy()
    polys = []
    for i, (cc, w) in enumerate(zip(cells, psis)):
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
        local_polys=polys,
        lam=lam,
        lambda0=lam0,
        config=tc,
        cfg=cfg,
        derived=derived,
        ball_cells=cells,
    )


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------


def derivative_bounds_report(res: TruncationResult) -> dict:
    """Measured constants c1 of the derivative bound on the bad set:
    ``{(l, k): c1}`` for every order pair k <= l, with
    |D^k v_lambda| <= c1 R^(l-k) lambda^(1/gamma_p,l); empty when the bad
    set is.
    """
    cfg, derived, tc = res.cfg, res.derived, res.config
    bad = res.bad_mask
    if not bad.any():
        return {}
    c1: dict = {}
    dnorm_cache = {k: derivative_norm(res.v_lambda, k).scalar() for k in range(cfg.m + 1)}
    for ell in range(cfg.m + 1):
        gp = derived.gamma["p"][ell]
        for k in range(ell + 1):
            c1[(ell, k)] = float(dnorm_cache[k][bad].max()) / (tc.R ** (ell - k) * res.lam ** (1.0 / gp))
    return c1


def oscillation_report(res: TruncationResult) -> dict:
    """Per-ball mean deviation of v from its local polynomial: ``{l: ratio}``
    for each order l <= m, the largest avg_{3/4 B_i} |D^l v - D^l P_i| over
    r_i^(m-l) lambda^(1/p) among the balls (0.0 with no ball), finite when
    the bound holds.
    """
    cfg = res.cfg
    cov = res.cover
    centers_flat = res.v.cell_centers().reshape(-1, res.v.n)
    dfields = {sig: d.values.reshape(-1, res.v.components)
               for k in range(cfg.m + 1) for sig, d in derivative_array(res.v, k).items()}
    max_ratio = {ell: 0.0 for ell in range(cfg.m + 1)}
    for i in range(len(cov)):
        cc = res.ball_cells[i]
        pts = centers_flat[cc]
        r_i = cov.radii[i]
        rows = {sig: f[cc] for sig, f in dfields.items()}
        for ell in range(cfg.m + 1):
            lhs = float(res.local_polys[i].derivative_norm_at(pts, ell, rows).mean())
            rhs = r_i ** (cfg.m - ell) * res.lam ** (1.0 / cfg.p)
            max_ratio[ell] = max(max_ratio[ell], lhs / rhs)
    return max_ratio


def admissibility_report(res: TruncationResult) -> dict:
    """Scaled mean oscillation of D^l v_lambda over a deterministic family of
    test balls (dyadic radii of at least 2h, centers on every 4th lattice cell
    per axis, so each ball holds its own cell and an axis neighbour) against
    R^(m-l-1) lambda^(1/p): ``{l: largest ratio}`` for each order l < m."""
    cfg, tc = res.cfg, res.config
    grid = res.v_lambda
    every_4th = (slice(None, None, 4),) * grid.n
    test_centers = _window_centers(grid, every_4th)[ball(tc.center, 2.0 * tc.R).mask_for(grid)[every_4th]]
    radii = [tc.R * 2.0**-j for j in range(1, 7)]

    # one block row per lattice cell: (cells, multi-indices, components)
    darrays = {
        ell: np.stack([d.values for d in derivative_array(grid, ell).values()],
                      axis=-2).reshape(math.prod(grid.dims), -1, grid.components)
        for ell in range(cfg.m)
    }
    max_ratio = {ell: 0.0 for ell in range(cfg.m)}
    for r in radii:
        if r < 2 * grid.spacing:
            continue
        # per order and test ball: the mean over its cells of |D^l v - mean|
        lhs = np.empty((cfg.m, len(test_centers)))
        for ids, (rows,) in _ball_rows(grid, test_centers, r):
            for ell in range(cfg.m):
                block = darrays[ell][rows]
                dev = block - block.mean(axis=1, keepdims=True)
                lhs[ell, ids] = np.sqrt(np.sum(dev**2, axis=(2, 3))).mean(axis=1)
        for ell in range(cfg.m):
            rhs = tc.R ** (cfg.m - ell - 1) * res.lam ** (1.0 / cfg.p)
            max_ratio[ell] = max([max_ratio[ell], *(lhs[ell] / r / rhs).tolist()])
    return max_ratio
