"""Whitney-type ball covers of bounded open lattice sets, with smooth
partitions of unity subordinate to them.

Construction: the lattice distance d(x) from each mask cell to the
complement (non-mask cells and the outside of the grid box) drives Vitali
selection.  Candidate centers are mask cells ordered by decreasing d (ties
by flat index), each proposing radius d/12 (the midpoint of the admissible
window [d/16, d/8]); a candidate is kept iff its quarter-ball misses every
kept quarter-ball.  Processing in decreasing-d order guarantees the cover
property: a rejected cell is blocked by an earlier, no-smaller ball whose
half-ball contains it.

The greedy runs across balls, not per candidate.  Radii never increase
along the candidates, so a blocking ball lies within rmax/2: one bucket
pair list gives every conflicting pair, each decided by the exact
quarter-ball test, and only the candidates with an earlier conflict are
visited in order; every other candidate is kept.  Stopping "once the half-balls cover
the mask" never cuts the kept list short: the last candidate x has the
smallest d, at most one cell h, and a half-ball of another center c holding
it would need |x - c| < r/2 <= d(c)/24 <= (d(x) + |x - c|)/24, i.e.
|x - c| < h/23, so x is kept and only its own ball completes the cover.  The
neighbour sets and the checks (W4), (W5) likewise test bucket candidate
pairs of centers with their exact predicates; the buckets only propose
pairs, their side carrying a relative margin, and no bucket decides an
outcome.  (W1) marks the cells of every half-ball, gathered by
``grid._ball_rows``.  (W3) decides from the distance to the nearest
complement cell, bounded through the mask's exact distance transform,
unless those bounds come within rounding of 8r or 16r, where it tests the
cells of those balls' B_8r and B_16r, all gathered in one
``grid._ball_rows`` call.

The partition stores one raw radial bump per ball (value 1 on the
half-ball, support in the 3/4-ball) plus the normalizing sum; normalized
functions sum to one exactly on the covered set.  The bumps of all balls
with the same lattice window shape are evaluated in one broadcast, and
the sum is accumulated in ball order, as ball-by-ball sums add.  At
arbitrary points the normalizer of ball i sums over its neighbour set A_i
only: where bump i is positive, a ball with a positive bump has its
3/4-ball holding the point too, so it lies in A_i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridError, GridFunction, _ball_rows, _ball_windows, _mesh, multi_indices

__all__ = [
    "WhitneyCover",
    "PartitionOfUnity",
    "distance_to_complement",
    "cover",
    "neighbor_sets",
    "verify_cover",
]


@dataclass(frozen=True)
class WhitneyCover:
    centers: np.ndarray  # (K, n)
    radii: np.ndarray  # (K,)
    max_radius: float
    neighbors: tuple = field(init=False)  # per-ball sorted index arrays, from neighbor_sets

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        r = np.asarray(self.radii, dtype=float)
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "neighbors", neighbor_sets(self))

    def __len__(self) -> int:
        return len(self.radii)

    def as_dict(self) -> dict:
        out = {
            "count": len(self),
            "max_radius": self.max_radius,
            "balls": [
                {"center": [float(x) for x in c], "radius": float(r)}
                for c, r in zip(self.centers, self.radii)
            ],
        }
        if self.neighbors:
            out["neighbor_sets"] = [[int(j) for j in a] for a in self.neighbors]
        return out


def _squared_edt(mask: np.ndarray) -> np.ndarray:
    """Exact squared lattice distance, in cells, from each cell to the nearest
    False cell of ``mask``, which must hold one.

    The squared Euclidean transform splits into one pass per axis
    (Felzenszwalb and Huttenlocher, "Distance Transforms of Sampled
    Functions", 2012), each a min-plus convolution with k^2.  Here a pass
    takes at each cell the least of k^2 plus the value k cells away along
    the axis, for growing k, and stops once every cell holds at most k^2,
    which no farther cell can beat.  Integers keep it exact, and the
    temporaries are the mask's size.
    """
    n = mask.ndim
    # past every squared distance on the lattice: a cell no pass has reached
    d2 = np.where(mask, sum(d * d for d in mask.shape) + 1, 0).astype(np.int64)
    for ax in range(n):
        src, out, length = d2, d2.copy(), mask.shape[ax]
        for k in range(1, length):
            if out.max() <= k * k:
                break
            near = (slice(None),) * ax + (slice(None, length - k),)
            far = (slice(None),) * ax + (slice(k, None),)
            for dst, other in ((near, far), (far, near)):
                view = out[dst]
                np.minimum(view, src[other] + k * k, out=view)
        d2 = out
    return d2


def distance_to_complement(grid: GridFunction, mask: np.ndarray) -> np.ndarray:
    """Distance from each mask cell center to the complement.

    Complement means non-mask cell centers and the boundary of the grid box.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.dims:
        raise GridError(f"mask shape {mask.shape} != grid dims {grid.dims}")
    if mask.all():
        d_cells = np.full(grid.dims, np.inf)
    else:
        d_cells = np.sqrt(_squared_edt(mask))
    d = d_cells * grid.spacing
    centers = grid.cell_centers()
    lo = grid.box_lo
    hi = grid.box_hi
    wall = np.minimum(
        np.min(centers - lo, axis=-1),
        np.min(hi - centers, axis=-1),
    )
    return np.minimum(d, wall)


def _pairs_within(points: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index pairs ``a < b`` of points at most ``reach`` apart,
    for a non-empty point set and a positive reach.

    A bucket list: lattice buckets of side reach (1 + 1e-9), a quarter of
    that along the last axis, which varies fastest in the bucket keys, so
    that each row of neighbouring buckets is one key range.  Each point
    meets the points of the 3^n side-sized cells around its own and keeps
    those within the side.  The side carries a relative margin, so rounding
    cannot drop a pair; every caller decides with its exact test.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1]
    lo = pts.min(axis=0)
    extent = float(np.max(pts.max(axis=0) - lo))
    # few enough buckets a side keep the keys in int64; wider buckets only
    # add candidates
    side, cap = reach * (1 + 1e-9), 2 ** (60 // n - 2)
    if not side * cap >= extent:
        side = extent / cap
    # buckets a quarter as wide along the last axis: a row of three is a
    # key range of nine, 9/4 of the side long
    width = np.array([side] * (n - 1) + [side / 4])
    cells = np.floor((pts - lo) / width).astype(np.int64) + 4
    weights = (int(cells.max()) + 5) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = cells @ weights
    order = np.argsort(keys, kind="stable")
    sorted_keys, sorted_cols = keys[order], pts[order].T.copy()
    limit = (reach * (1 + 1e-9)) ** 2
    a_parts, b_parts = [], []
    for off in itertools.product((-1, 0, 1), repeat=n - 1):
        if off < (0,) * (n - 1):  # each pair of rows once
            continue
        mid = keys + weights[:-1] @ np.array(off, dtype=np.int64)
        start = np.searchsorted(sorted_keys, mid - 4, "left")
        count = np.searchsorted(sorted_keys, mid + 4, "right") - start
        at = np.repeat(start - np.cumsum(count) + count, count) + np.arange(int(count.sum()))
        d2 = sum((np.repeat(col, count) - cs[at]) ** 2 for col, cs in zip(pts.T, sorted_cols))
        keep = d2 <= limit
        a, b = np.repeat(np.arange(len(pts)), count)[keep], order[at[keep]]
        a, b = (np.minimum(a, b), np.maximum(a, b)) if any(off) else (a[a < b], b[a < b])
        a_parts.append(a)
        b_parts.append(b)
    return np.concatenate(a_parts), np.concatenate(b_parts)


def _per_ball(flat: np.ndarray, bounds: list) -> list:
    """Split a flat array, concatenated in ball order, at ``bounds``."""
    return [flat[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def cover(grid: GridFunction, mask, R: float) -> WhitneyCover:
    """Greedy Vitali construction of a Whitney cover of the mask."""
    mask = np.asarray(mask, dtype=bool)
    empty = WhitneyCover(np.zeros((0, grid.n)), np.zeros(0), float(R))
    if not mask.any():
        return empty

    d = distance_to_complement(grid, mask)
    flat_idx = np.flatnonzero(mask.reshape(-1))
    d_flat = d.reshape(-1)[flat_idx]
    pts = grid.cell_centers().reshape(-1, grid.n)[flat_idx]
    order = np.lexsort((flat_idx, -d_flat))
    # fmin, like Python's min, keeps d/12 when R is NaN
    r = np.fmin(d_flat[order] / 12.0, float(R))
    valid = r > 0
    c, r = pts[order[valid]], r[valid]
    if not len(r):  # R <= 0
        return empty

    # Radii never increase along the candidates, so an earlier ball blocks
    # a later one only within rmax/2.
    a, b = _pairs_within(c, float(r.max()) / 2.0)
    hit = np.linalg.norm(c[a] - c[b], axis=1) < (r[b] + r[a]) / 4.0
    blockers: dict[int, list] = {}
    for i, j in zip(a[hit].tolist(), b[hit].tolist()):
        blockers.setdefault(j, []).append(i)
    keep = np.ones(len(r), dtype=bool)
    for j in sorted(blockers):  # only candidates with an earlier conflict, in order
        keep[j] = not keep[blockers[j]].any()
    return WhitneyCover(c[keep], r[keep], float(R))


def neighbor_sets(cov: WhitneyCover) -> tuple:
    """A_i = { j : (3/4)B_i intersects (3/4)B_j }, always containing i."""
    k = len(cov)
    if k == 0:
        return ()
    c, r = cov.centers, cov.radii
    a, b = _pairs_within(c, 1.5 * float(r.max()))
    a = np.concatenate([a, np.arange(k)])  # each ball meets itself
    b = np.concatenate([b, np.arange(k)])
    hit = np.linalg.norm(c[b] - c[a], axis=1) < 0.75 * (r[a] + r[b])
    a, b = a[hit], b[hit]
    two = a != b
    rows = np.concatenate([a, b[two]])
    cols = np.concatenate([b, a[two]])
    o = np.lexsort((cols, rows))
    return tuple(_per_ball(cols[o], np.searchsorted(rows[o], np.arange(k + 1)).tolist()))


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, a(t)/(a(t)+a(1-t))
    in between with a(t) = exp(-1/t); infinitely flat at both joints."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    out[t <= 0.0] = 0.0
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    with np.errstate(over="ignore", under="ignore"):
        num = np.exp(-1.0 / tm)
        den = num + np.exp(-1.0 / (1.0 - tm))
    out[mid] = num / den
    return out


def _profile(s: np.ndarray) -> np.ndarray:
    """Radial bump profile: 1 on [0, 2/3], falling smoothly to 0 at 1."""
    s = np.asarray(s, dtype=float)
    return 1.0 - smoothstep(3.0 * s - 2.0)


@dataclass(frozen=True)
class PartitionOfUnity:
    """Partition of unity subordinate to {3/4 B_i}: raw bumps and their
    normalizing sum for a Whitney cover."""

    cover: WhitneyCover

    def bump(self, i: int, points: np.ndarray) -> np.ndarray:
        """Raw bump of ball i: one on the half-ball, support in the 3/4-ball."""
        pts = np.asarray(points, dtype=float)
        s = np.linalg.norm(pts - self.cover.centers[i], axis=-1) / (0.75 * self.cover.radii[i])
        return _profile(s)

    def psi_values(self, i: int, points: np.ndarray) -> np.ndarray:
        """Normalized partition function of ball i at the points; the
        normalizer sums the bumps of A_i, in ball order."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        num = self.bump(i, pts)
        den = np.zeros(len(pts), dtype=float)
        for j in self.cover.neighbors[i].tolist():
            den += self.bump(j, pts)
        return np.where(num > 0, num / np.where(num > 0, den, 1.0), 0.0)

    # -- grid-wide fields, built across balls -------------------------------

    def _flat_fields(self, grid: GridFunction):
        """Every ball's bump cells and values, concatenated in ball order,
        with the per-ball split points and the denominator field."""
        r = 0.75 * self.cover.radii
        k = len(r)
        ball_ids, cells, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
        for ids, window, d2 in _ball_windows(grid, self.cover.centers, r):  # one broadcast per chunk
            # sqrt(d2) is np.linalg.norm's distance, bit for bit
            v = _profile(np.sqrt(d2) / r[ids].reshape((len(ids),) + (1,) * grid.n))
            keep = v > 0
            ball_ids.append(ids[np.nonzero(keep)[0]])
            cells.append(window[keep])
            vals.append(v[keep])
        ball_ids = np.concatenate(ball_ids)
        o = np.argsort(ball_ids, kind="stable")
        cells, vals = np.concatenate(cells)[o], np.concatenate(vals)[o]
        bounds = [0] + np.cumsum(np.bincount(ball_ids, minlength=k)).tolist()
        denom = np.zeros(int(np.prod(grid.dims)), dtype=float)
        np.add.at(denom, cells, vals)  # in ball order, as ball-by-ball sums add
        return cells, vals, bounds, denom

    def psi_grid(self, grid: GridFunction):
        """Normalized partition values on the grid, per ball (sparse)."""
        cells, vals, bounds, denom = self._flat_fields(grid)
        d = denom[cells]
        return _per_ball(cells, bounds), _per_ball(vals / np.where(d > 0, d, 1.0), bounds), denom


def pou_derivative_bound_report(pou: PartitionOfUnity, m: int) -> dict:
    """Measured sup |D^l psi_i| r_i^l per order l <= m over sampled balls,
    as ``{l: sup}``.

    Derivatives are central finite differences at ball-adapted spacing
    (r_i/32) of the normalized partition function, sampled on a lattice of
    4 points per axis inside each 3/4-ball; about 64 balls are visited
    with a deterministic stride, each with one ``psi_values`` call for
    every stencil point of every order.
    """
    cov = pou.cover
    worst = {ell: 0.0 for ell in range(m + 1)}
    n = cov.centers.shape[1] if len(cov) else 1
    stride = max(1, len(cov) // 64)
    sigmas = [sig for ell in range(m + 1) for sig in multi_indices(n, ell)]
    for i in range(0, len(cov), stride):
        c = cov.centers[i]
        r = cov.radii[i]
        pts = _mesh([np.linspace(-0.6 * r, 0.6 * r, 4)] * n).reshape(-1, n) + c
        stencils = [_fd_stencil(sig, n, r / 32.0) for sig in sigmas]
        offsets = np.array([off for st in stencils for off, _ in st])
        psi = iter(pou.psi_values(i, (pts + offsets[:, None]).reshape(-1, n)).reshape(len(offsets), len(pts)))
        sq = {ell: np.zeros(len(pts)) for ell in range(m + 1)}
        for sig, st in zip(sigmas, stencils):
            diff = np.zeros(len(pts))
            for (_, w), vals in zip(st, psi):
                diff += w * vals
            sq[sum(sig)] += diff**2
        for ell in range(m + 1):
            worst[ell] = max(worst[ell], float(np.sqrt(sq[ell]).max()) * r**ell)
    return worst


def _fd_stencil(sigma, n: int, h: float) -> list:
    """(offset, weight) pairs of the central finite difference for the
    multi-index sigma at spacing h, composed axis by axis."""
    stencil = [(np.zeros(n), 1.0)]
    for axis, k in enumerate(sigma):
        for _ in range(int(k)):
            new = []
            for off, w in stencil:
                e = np.zeros(n)
                e[axis] = h
                new.append((off + e, w / (2 * h)))
                new.append((off - e, -w / (2 * h)))
            stencil = new
    return stencil


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _pair_intersection_measure(c1, r1, c2, r2, n: int) -> float:
    """Deterministic quadrature of |B(c1,r1) cap B(c2,r2)| on a 24-point
    midpoint lattice per axis of the boxes' overlap, which W7's neighbour
    pairs (|c1 - c2| < r1 + r2 with the r2 passed) never leave empty."""
    lo = np.maximum(c1 - r1, c2 - r2)
    hi = np.minimum(c1 + r1, c2 + r2)
    hs = (hi - lo) / 24
    pts = _mesh([lo[a] + (np.arange(24) + 0.5) * hs[a] for a in range(n)]).reshape(-1, n)
    inside = (np.linalg.norm(pts - c1, axis=1) < r1) & (np.linalg.norm(pts - c2, axis=1) < r2)
    return float(inside.sum()) * float(np.prod(hs))


def _w3_holds(cov: WhitneyCover, grid: GridFunction, mask: np.ndarray) -> bool:
    """(W3) for every ball: 8B inside the mask (cells and box), 16B meets
    the complement (a cell, or the box wall within half a cell).

    It computes the mask's distance transform itself rather than take the
    one ``cover`` built its radii from, so a fault in those distances
    cannot pass its own check."""
    c, r = cov.centers, cov.radii
    r8, r16 = (8 * r)[:, None], (16 * r)[:, None]
    lo, hi, h = grid.box_lo, grid.box_hi, grid.spacing
    in_box = ~(np.any(c - r8 < lo, axis=1) | np.any(c + r8 > hi, axis=1))
    pokes_out = np.any(c - r16 < lo + h / 2, axis=1) | np.any(c + r16 > hi - h / 2, axis=1)
    r8, r16 = r8[:, 0], r16[:, 0]
    if mask.all():
        near_lo = near_hi = np.full(len(c), np.inf)
    else:
        # c's distance to the complement cells lies within |c - x| of the
        # distance from x, the center of the cell nearest c
        cell = np.clip(np.floor((c - lo) / h), 0, np.asarray(grid.dims) - 1).astype(int)
        x = np.stack([grid.axis_centers(a)[cell[:, a]] for a in range(grid.n)], axis=1)
        off = np.linalg.norm(c - x, axis=1)
        near = np.sqrt(_squared_edt(mask)[tuple(cell.T)]) * h
        near_lo, near_hi = near - off, near + off
    # that band decides, unless it reaches within rounding of 8r or 16r
    in8, in16 = near_hi < r8 * (1 - 1e-9), near_hi < r16 * (1 - 1e-9)
    clear = (in8 | (near_lo > r8 * (1 + 1e-9))) & (in16 | (near_lo > r16 * (1 + 1e-9)))
    tied = np.flatnonzero(in_box & ~clear)
    out = ~mask.reshape(-1)
    for ids, (ball8, ball16) in _ball_rows(grid, c[tied], r8[tied], r16[tied]):
        in8[tied[ids]], in16[tied[ids]] = out[ball8].any(axis=1), out[ball16].any(axis=1)
    return bool(np.all(in_box & ~in8 & (in16 | pokes_out)))


def verify_cover(cov: WhitneyCover, grid: GridFunction, mask, pair_samples: int = 64) -> dict:
    """Check (W1)-(W7) for a cover against its mask; measured constants."""
    mask = np.asarray(mask, dtype=bool)
    out: dict = {}
    k = len(cov)

    if k == 0:
        out["W1"] = not mask.any()
        for key in ("W2", "W3", "W4", "W5", "W6", "W7"):
            out[key] = True
        out["overlap_max"] = 0
        return out

    c, r = cov.centers, cov.radii
    # (W1): every mask cell inside some open half-ball
    covered = np.zeros(mask.size, dtype=bool)
    for _ids, (cells,) in _ball_rows(grid, c, r / 2.0):
        covered[cells] = True
    out["W1"] = bool(covered[mask.reshape(-1)].all())

    # (W2)
    out["W2"] = bool(np.all(r <= cov.max_radius * (1 + 1e-12)))

    out["W3"] = _w3_holds(cov, grid, mask)

    # (W4): radius comparability of intersecting balls, both ways round;
    # (W5): quarter-balls pairwise disjoint
    a, b = _pairs_within(c, 2.0 * float(r.max()))
    dist = np.linalg.norm(c[b] - c[a], axis=1)
    touching = dist < r[a] + r[b]
    ra, rb = r[a][touching], r[b][touching]
    out["W4"] = not any(np.any(q > 2 + 1e-12) or np.any(q < 0.5 - 1e-12) for q in (ra / rb, rb / ra))
    out["W5"] = not bool(np.any(dist < (r[a] + r[b]) / 4.0 - 1e-12))

    # (W6)
    counts = np.array([len(a) for a in cov.neighbors])
    out["overlap_max"] = int(counts.max())
    out["W6"] = bool(counts.max() <= (64 if grid.n == 1 else 256))

    # (W7) on sampled neighbor pairs
    pi = np.repeat(np.arange(k), counts)
    pj = np.concatenate(cov.neighbors)
    two = pi != pj
    stride = max(1, int(np.count_nonzero(two)) // pair_samples)
    w7_const = 0.0
    w7 = True
    for i, j in zip(pi[two][::stride].tolist(), pj[two][::stride].tolist()):
        inter = _pair_intersection_measure(c[i], r[i], c[j], 0.75 * r[j], grid.n)
        omega = math.pi ** (grid.n / 2) / math.gamma(grid.n / 2 + 1)
        big = omega * max(r[i], r[j]) ** grid.n
        if inter <= 0:
            w7 = False
            break
        w7_const = max(w7_const, big / inter)
    out["W7"] = bool(w7)
    out["W7_constant"] = w7_const
    return out
