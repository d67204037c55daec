"""Comparison-class weights a(x) <= C (a(y) + |x-y|^alpha) and the
double-phase integrand they drive.

The defining constant is estimated as a sup over grid point pairs, the
infimal-convolution regularization replaces a weight by a continuous
comparable one, and ``double_phase`` evaluates the order-l integrand
H_l(x, z) = |z|^gamma_{p,l} + a(x)^{gamma_{q,l}/q} |z|^gamma_{q,l}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridFunction

__all__ = [
    "Weight",
    "estimate_seminorm",
    "regularize",
    "double_phase",
    "double_phase_field",
]

# Lattice cells per tile side, ~64 points per tile in each dimension.
_TILE_CELLS = {1: 64, 2: 8, 3: 4}


@dataclass(frozen=True)
class Weight:
    """A nonnegative scalar weight with its comparison exponent."""

    a: GridFunction
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise GridError(f"alpha must be positive, got {self.alpha}")
        if np.any(self.a.scalar() < 0):
            raise GridError("weight samples must be nonnegative")


def _alpha_power_of_sq(d2: np.ndarray, alpha: float) -> np.ndarray:
    """|d|^alpha from squared distances; sqrt chains for the common cases."""
    if alpha == 2.0:
        return d2
    if alpha == 1.0:
        return np.sqrt(d2)
    if alpha == 0.5:
        return np.sqrt(np.sqrt(d2))
    return d2 ** (alpha / 2.0)


def _pair_values(px, py, vals_y, alpha: float) -> np.ndarray:
    """a(y) + |x-y|^alpha for every pair, from exact per-axis differences."""
    d2 = (px[:, 0][:, None] - py[:, 0][None, :]) ** 2
    for ax in range(1, px.shape[1]):
        d2 += (px[:, ax][:, None] - py[:, ax][None, :]) ** 2
    return vals_y[None, :] + _alpha_power_of_sq(d2, alpha)


def _tiles(pts):
    """Bin points into tiles of _TILE_CELLS lattice cells per axis.

    The cell index along an axis is the rank of the point's coordinate among
    the distinct coordinates, so any point set works (sublattices too).
    Returns the point order that groups the tiles, the tile boundaries in
    that order and each tile's bounding box.
    """
    tile = np.stack([np.unique(pts[:, ax], return_inverse=True)[1]
                     for ax in range(pts.shape[1])]) // _TILE_CELLS[pts.shape[1]]
    tile_id = np.ravel_multi_index(tile, tuple(tile.max(axis=1) + 1))
    order = np.argsort(tile_id, kind="stable")
    starts = np.flatnonzero(np.diff(tile_id[order], prepend=-1))
    grouped = pts[order]
    return order, np.append(starts, len(pts)), np.minimum.reduceat(grouped, starts), np.maximum.reduceat(grouped, starts)


def _min_convolution(pts_x, pts_y, vals_y, alpha: float) -> np.ndarray:
    """min over y of (a(y) + |x-y|^alpha) for each x, by tile branch-and-bound.

    Distances use exact per-axis differences, so the y = x term contributes
    exactly a(x) and the envelope never exceeds the input.  A y-tile is
    skipped once a lower bound on all its pair values, min a(tile) plus the
    gap between tile boxes to the alpha, reaches the worst current best of
    the x-tile.  The pair values that are computed are those of the dense
    sweep, so the minimum is the same bit for bit.
    """
    if not 0 < alpha < math.inf:
        raise GridError(f"alpha must be finite and positive, got {alpha}")
    out = np.empty(len(pts_x), dtype=float)
    if len(pts_x) == 0:
        return out
    # a pair value adds at most diameter^alpha to a(y), so that must be finite
    with np.errstate(over="ignore", invalid="ignore"):
        extent = np.maximum(pts_x.max(axis=0), pts_y.max(axis=0)) - np.minimum(pts_x.min(axis=0), pts_y.min(axis=0))
        reach = _alpha_power_of_sq(np.sum(extent**2), alpha)
    if not np.isfinite(reach):
        raise GridError(f"lattice extent {extent.tolist()} is too wide for the weight envelope: "
                        f"|x-y|^alpha across it is not finite (alpha = {alpha})")
    x_order, x_bounds, x_lo, x_hi = _tiles(pts_x)
    y_order, y_bounds, y_lo, y_hi = _tiles(pts_y)
    py, vy = pts_y[y_order], vals_y[y_order]
    # Box gaps summed in the pair arithmetic's axis order: rounding is
    # monotone, so the float gap never exceeds a float pair distance.
    gap2 = np.zeros((len(x_lo), len(y_lo)))
    for ax in range(pts_x.shape[1]):
        gap = np.maximum(np.maximum(y_lo[None, :, ax] - x_hi[:, None, ax], x_lo[:, None, ax] - y_hi[None, :, ax]), 0.0)
        gap2 += gap**2
    # shaved so that a last-bit non-monotone power cannot overshoot
    bound = (np.minimum.reduceat(vy, y_bounds[:-1])[None, :] + _alpha_power_of_sq(gap2, alpha)) * (1.0 - 1e-12)
    for tx, visit in enumerate(np.argsort(bound, axis=1, kind="stable")):
        xs = x_order[x_bounds[tx] : x_bounds[tx + 1]]
        best = np.full(len(xs), np.inf)
        for ty in visit:
            if bound[tx, ty] >= best.max():
                break
            ys = slice(y_bounds[ty], y_bounds[ty + 1])
            np.minimum(best, _pair_values(pts_x[xs], py[ys], vy[ys], alpha).min(axis=1), out=best)
        out[xs] = best
    return out


def _sup_ratio(pts, vals, alpha: float) -> float:
    """sup over pairs of a(x) / (a(y) + |x-y|^alpha) = max a / (inf-convolution)."""
    env = _min_convolution(pts, pts, vals, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(env > 0, vals / env, 0.0)
    return float(ratio.max()) if len(ratio) else 0.0


def estimate_seminorm(a: GridFunction, alpha: float) -> tuple[float, bool]:
    """Estimate the comparison constant and flag divergence under refinement.

    Returns ``(estimate, diverging)``.  The estimate is the sup over all
    grid point pairs of a(x)/(a(y)+|x-y|^alpha), floored at 1 (the
    inequality always holds with constant 1 at x = y).  The weight is
    flagged diverging when the full-lattice estimate exceeds twice the
    stride-2 sublattice estimate.
    """
    if np.any(a.scalar() < 0):
        raise GridError("weight samples must be nonnegative")
    pts, vals = a.cell_centers(), a.scalar()
    est_fine = max(1.0, _sup_ratio(pts.reshape(-1, a.n), vals.reshape(-1), alpha))

    # one coarsening step: every other cell along each axis, in C order
    every_other = tuple(slice(None, None, 2) for _ in range(a.n))
    pts_c, vals_c = pts[every_other].reshape(-1, a.n), vals[every_other].reshape(-1)
    if len(pts_c) >= 2:
        est_coarse = max(1.0, _sup_ratio(pts_c, vals_c, alpha))
    else:
        est_coarse = est_fine
    return est_fine, est_fine > 2.0 * est_coarse


def regularize(a: GridFunction, alpha: float, diverging: bool) -> GridFunction:
    """Infimal convolution: atilde(x) = min_y (a(y) + |x-y|^alpha).

    Minimizes over grid points only, so atilde <= a holds exactly (take
    y = x) and the output is reproducible bit for bit.  ``diverging`` is
    the flag of an ``estimate_seminorm`` call on ``a``; a diverging weight
    is refused.
    """
    if diverging:
        raise GridError("weight comparison constant diverges under refinement")
    pts = a.cell_centers().reshape(-1, a.n)
    vals = a.scalar().reshape(-1)
    out = _min_convolution(pts, pts, vals, alpha)
    return a.with_values(out.reshape(a.dims)[..., None])


def double_phase(z_norm, a_val, gamma_p: float, gamma_q: float, q: float):
    """H(x, z) = |z|^gamma_p + a(x)^(gamma_q/q) |z|^gamma_q, elementwise."""
    z = np.asarray(z_norm, dtype=float)
    a = np.asarray(a_val, dtype=float)
    return z**gamma_p + a ** (gamma_q / q) * z**gamma_q


def double_phase_field(
    z_norm: GridFunction,
    weight: Weight,
    derived,
    q: float,
    ell: int,
) -> GridFunction:
    """Order-l double-phase integrand of a (derivative-norm) field."""
    gp = derived.gamma["p"][ell]
    gq = derived.gamma["q"][ell]
    vals = double_phase(z_norm.scalar(), weight.a.scalar(), gp, gq, q)
    return z_norm.with_values(vals[..., None])
