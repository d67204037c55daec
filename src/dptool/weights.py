"""Comparison-class weights a(x) <= C (a(y) + |x-y|^alpha) and the
double-phase integrand they drive.

The defining constant is estimated as a sup over grid point pairs, the
infimal-convolution regularization replaces a weight by a continuous
comparable one, and ``double_phase`` evaluates the order-l integrand
H_l(x, z) = |z|^gamma_{p,l} + a(x)^{gamma_{q,l}/q} |z|^gamma_{q,l}.

The estimate and the regularization rest on one envelope over a set of
distinct points, atilde(x) = min_y (a(y) + |x-y|^alpha), which
``_min_convolution`` computes bit for bit as the dense sweep over all pairs
would: each point starts at its own term, the other points of its tile lie
at least the floor (the least coordinate gap) away, and it stops at the
first tile whose tile-to-tile bound reaches its best, a bound without the
floor because it also orders the visits.
``estimate_and_regularize`` builds a weight's full-lattice envelope once for
both uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridFunction

__all__ = [
    "Weight",
    "estimate_seminorm",
    "estimate_and_regularize",
    "regularize",
    "double_phase",
    "double_phase_field",
]

# Lattice cells per tile side, 64 points per full tile.  Timed on |Fourier|,
# power and uniform random weights: 4-cell 2-D tiles ran slower than 8-cell
# ones on all but the 64^2 uniform weight (a tie); 6-cell tiles ran fastest
# at 64^2 and 96^2 but twice as slow on the 192^2 power weight, as the
# tile-pair bound arrays grow as tiles^2.  In 3-D, 3-cell tiles beat 4-cell
# ones on the uniform weight alone.
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
    that order, each tile's bounding box, and the floor: the least positive
    gap between consecutive distinct coordinates along any axis (inf when
    every axis holds one coordinate).
    """
    ranks, floor = [], math.inf
    for ax in range(pts.shape[1]):
        coords, rank = np.unique(pts[:, ax], return_inverse=True)
        ranks.append(rank)
        floor = min(floor, float(np.diff(coords).min(initial=math.inf)))
    tile = np.stack(ranks) // _TILE_CELLS[pts.shape[1]]
    tile_id = np.ravel_multi_index(tile, tuple(tile.max(axis=1) + 1))
    order = np.argsort(tile_id, kind="stable")
    starts = np.flatnonzero(np.diff(tile_id[order], prepend=-1))
    grouped = pts[order]
    return (order, np.append(starts, len(pts)), np.minimum.reduceat(grouped, starts),
            np.maximum.reduceat(grouped, starts), floor)


def _box_gap2(a_lo, a_hi, b_lo, b_hi):
    """Squared gap between boxes (or points), summed in the pair arithmetic's
    axis order: rounding is monotone, so it never exceeds a pair distance."""
    d2 = np.zeros(np.broadcast_shapes(a_lo.shape, b_lo.shape)[:-1])
    for ax in range(a_lo.shape[-1]):
        d2 += np.maximum(np.maximum(b_lo[..., ax] - a_hi[..., ax], a_lo[..., ax] - b_hi[..., ax]), 0.0) ** 2
    return d2


def _min_convolution(pts, vals, alpha: float) -> np.ndarray:
    """min over y of (a(y) + |x-y|^alpha) for each x, by per-point branch-and-bound.

    x and y both range over ``pts``, which must be distinct points (lattice
    cell centres are).  Distances use exact per-axis differences, so the y = x
    term is a(x) + 0.0, with which each x starts: the envelope never exceeds
    the input, and a -0.0 sample maps to +0.0 as in the dense sweep.

    Every other y lies at least the floor from x along some axis (the least
    positive gap between consecutive distinct coordinates, see ``_tiles``).
    Rounding is monotone, so that y's computed difference, its square and the
    sum over axes are all at least fl(floor^2).  A tile's pair values other
    than x's own are thus at least min a(tile) + max(gap^2, floor^2)^(alpha/2),
    the gap taken from x to the tile's box; x skips a tile whose bound reaches
    its best so far.  Without the floor, x's own tile would have a gap of 0
    and could never be skipped.

    Each x visits the tiles in its own tile's order of the tile-to-tile bound
    (the gap between the two boxes), and stops for good at the first whose
    tile-to-tile bound reaches its best; all points advance one tile per
    round.  The stop is valid only because the tiles are visited in
    increasing order of the same bound it tests, so that bound takes no
    floor: a floored stop over an unfloored order would skip tiles that hold
    a minimum.  The pair values computed are the dense sweep's, and a minimum
    is exact, so the result matches the dense sweep bit for bit.
    """
    if not 0 < alpha < math.inf:
        raise GridError(f"alpha must be finite and positive, got {alpha}")
    # a pair value adds at most diameter^alpha to a(y), so that must be finite
    with np.errstate(over="ignore", invalid="ignore"):
        extent = pts.max(axis=0) - pts.min(axis=0)
        reach = _alpha_power_of_sq(np.sum(extent**2), alpha)
    if not np.isfinite(reach):
        raise GridError(f"lattice extent {extent.tolist()} is too wide for the weight envelope: "
                        f"|x-y|^alpha across it is not finite (alpha = {alpha})")
    order, bounds, lo, hi, floor = _tiles(pts)
    p, v = pts[order], vals[order]
    t_min = np.minimum.reduceat(v, bounds[:-1])
    # shaved so that a last-bit non-monotone power cannot overshoot
    lower = lambda t, gap2: (t_min[t] + _alpha_power_of_sq(gap2, alpha)) * (1.0 - 1e-12)  # noqa: E731
    bound = lower(slice(None), _box_gap2(lo[:, None], hi[:, None], lo, hi))
    visit = np.argsort(bound, axis=1)  # ties in any order: the minimum does not depend on it
    # tiles padded to one slot count; a padding slot repeats a point of its tile at value +inf
    sizes = np.diff(bounds)
    slot = np.arange(sizes.max())
    fill = bounds[:-1, None] + np.minimum(slot, sizes[:, None] - 1)
    p_tiles, v_tiles = p[fill], np.where(slot < sizes[:, None], v[fill], np.inf)
    floor2 = floor * floor
    best, active = v + 0.0, np.arange(len(p))
    tile = np.repeat(np.arange(len(lo)), sizes)
    chunk = max(1, _ROUND_PAIRS // len(slot))
    for r in range(len(lo)):
        ty = visit[tile, r]
        go = bound[tile, ty] < best[active]
        active, tile, ty = active[go], tile[go], ty[go]
        if not len(active):
            break
        xa = p[active]
        near = lower(ty, np.maximum(_box_gap2(xa, xa, lo[ty], hi[ty]), floor2)) < best[active]
        points, tiles = active[near], ty[near]
        for s in range(0, len(points), chunk):
            pa, ta = points[s : s + chunk], tiles[s : s + chunk]
            best[pa] = np.minimum(best[pa], _pair_values(p[pa], p_tiles[ta], v_tiles[ta], alpha).min(axis=1))
    out = np.empty_like(best)
    out[order] = best
    return out


def _sup_ratio(vals, env) -> float:
    """sup over pairs of a(x) / (a(y) + |x-y|^alpha) = max a / (inf-convolution)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(env > 0, vals / env, 0.0)
    return float(ratio.max()) if len(ratio) else 0.0


def estimate_and_regularize(a: GridFunction, alpha: float) -> tuple[float, bool, GridFunction]:
    """``estimate_seminorm``'s ``(estimate, diverging)`` and the regularized
    weight, from one full-lattice envelope.

    The regularized weight is returned whatever the flag: a caller refuses
    a diverging weight before it uses it, as ``regularize`` does.
    """
    if np.any(a.scalar() < 0):
        raise GridError("weight samples must be nonnegative")
    pts, vals = a.cell_centers(), a.scalar()
    env = _min_convolution(pts.reshape(-1, a.n), vals.reshape(-1), alpha)
    est_fine = max(1.0, _sup_ratio(vals.reshape(-1), env))

    # one coarsening step: every other cell along each axis, in C order
    every_other = tuple(slice(None, None, 2) for _ in range(a.n))
    pts_c, vals_c = pts[every_other].reshape(-1, a.n), vals[every_other].reshape(-1)
    if len(pts_c) >= 2:
        est_coarse = max(1.0, _sup_ratio(vals_c, _min_convolution(pts_c, vals_c, alpha)))
    else:
        est_coarse = est_fine
    return est_fine, est_fine > 2.0 * est_coarse, a.with_values(env.reshape(a.dims)[..., None])


def estimate_seminorm(a: GridFunction, alpha: float) -> tuple[float, bool]:
    """Estimate the comparison constant and flag divergence under refinement.

    Returns ``(estimate, diverging)``.  The estimate is the sup over all
    grid point pairs of a(x)/(a(y)+|x-y|^alpha), floored at 1 (the
    inequality always holds with constant 1 at x = y).  The weight is
    flagged diverging when the full-lattice estimate exceeds twice the
    stride-2 sublattice estimate.
    """
    est, diverging, _ = estimate_and_regularize(a, alpha)
    return est, diverging


def regularize(a: GridFunction, alpha: float, diverging: bool) -> GridFunction:
    """Infimal convolution: atilde(x) = min_y (a(y) + |x-y|^alpha).

    Minimizes over grid points only, so atilde <= a holds exactly (take
    y = x) and the output is reproducible bit for bit.  ``diverging`` is
    the flag of an ``estimate_seminorm`` call on ``a``; a diverging weight
    is refused.
    """
    if diverging:
        raise GridError("weight comparison constant diverges under refinement")
    out = _min_convolution(a.cell_centers().reshape(-1, a.n), a.scalar().reshape(-1), alpha)
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
