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

# Lattice cells per tile side, 64 points per full tile.  4-cell 2-D tiles ran
# slower at 96^2, as the (x-tile, y-tile) bound arrays grow as tiles^2.
_TILE_CELLS = {1: 64, 2: 8, 3: 4}
# Pair values per envelope step: 64 KiB temporaries, which malloc reuses
# rather than maps afresh (2^16 ran about twice as slow per pair).
_ROUND_PAIRS = 1 << 13


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
    """a(y) + |x-y|^alpha of each x in px (points, n) against its own block
    py (points, slots, n), from exact per-axis differences in axis order."""
    d2 = (px[:, None, 0] - py[..., 0]) ** 2
    for ax in range(1, px.shape[1]):
        d2 += (px[:, None, ax] - py[..., ax]) ** 2
    return vals_y + _alpha_power_of_sq(d2, alpha)


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


def _box_gap2(a_lo, a_hi, b_lo, b_hi):
    """Squared gap between boxes (or points), summed in the pair arithmetic's
    axis order: rounding is monotone, so it never exceeds a pair distance."""
    d2 = np.zeros(np.broadcast_shapes(a_lo.shape, b_lo.shape)[:-1])
    for ax in range(a_lo.shape[-1]):
        d2 += np.maximum(np.maximum(b_lo[..., ax] - a_hi[..., ax], a_lo[..., ax] - b_hi[..., ax]), 0.0) ** 2
    return d2


def _min_convolution(pts_x, pts_y, vals_y, alpha: float) -> np.ndarray:
    """min over y of (a(y) + |x-y|^alpha) for each x, by per-point branch-and-bound.

    Distances use exact per-axis differences, so the y = x term contributes
    exactly a(x) and the envelope never exceeds the input.  A y-tile's pair
    values are at least min a(tile) plus the gap to its box to the alpha.
    Each x visits the y-tiles in its x-tile's bound order, skips one whose
    bound from x reaches its best so far, and stops at the first whose bound
    from the x-tile does; all points advance one tile per round.  The pair
    values computed are the dense sweep's, so the minimum matches bit for bit.
    """
    if not 0 < alpha < math.inf:
        raise GridError(f"alpha must be finite and positive, got {alpha}")
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
    y_min = np.minimum.reduceat(vy, y_bounds[:-1])
    # shaved so that a last-bit non-monotone power cannot overshoot
    lower = lambda ty, gap2: (y_min[ty] + _alpha_power_of_sq(gap2, alpha)) * (1.0 - 1e-12)  # noqa: E731
    bound = lower(slice(None), _box_gap2(x_lo[:, None], x_hi[:, None], y_lo, y_hi))
    visit = np.argsort(bound, axis=1)  # ties in any order: the minimum does not depend on it
    # y-tiles padded to one slot count; a padding slot repeats a point of its tile at value +inf
    sizes = np.diff(y_bounds)
    slot = np.arange(sizes.max())
    fill = y_bounds[:-1, None] + np.minimum(slot, sizes[:, None] - 1)
    py_tiles, vy_tiles = py[fill], np.where(slot < sizes[:, None], vy[fill], np.inf)
    px = pts_x[x_order]
    best, active = np.full(len(px), np.inf), np.arange(len(px))
    tile = np.repeat(np.arange(len(x_lo)), np.diff(x_bounds))
    chunk = max(1, _ROUND_PAIRS // len(slot))
    for r in range(len(y_lo)):
        ty = visit[tile, r]
        go = bound[tile, ty] < best[active]
        active, tile, ty = active[go], tile[go], ty[go]
        if not len(active):
            break
        xa = px[active]
        near = lower(ty, _box_gap2(xa, xa, y_lo[ty], y_hi[ty])) < best[active]
        points, tiles = active[near], ty[near]
        for s in range(0, len(points), chunk):
            pa, ta = points[s : s + chunk], tiles[s : s + chunk]
            best[pa] = np.minimum(best[pa], _pair_values(px[pa], py_tiles[ta], vy_tiles[ta], alpha).min(axis=1))
    out = np.empty_like(best)
    out[x_order] = best
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
