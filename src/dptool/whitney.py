"""Whitney-type ball covers of bounded open lattice sets, with smooth
partitions of unity subordinate to them.

Construction: the lattice distance d(x) from each mask cell to the
complement (non-mask cells and the outside of the grid box) drives Vitali
selection.  Candidate centers are mask cells ordered by decreasing d (ties
by flat index), each proposing radius d/12 (the midpoint of the admissible
window [d/16, d/8]); a candidate is kept iff its quarter-ball misses every
kept quarter-ball, and selection stops once the half-balls cover the mask.
Processing in decreasing-d order guarantees the cover property: a rejected
cell is blocked by an earlier, no-smaller ball whose half-ball contains it.

The partition stores one raw radial bump per ball (value 1 on the
half-ball, support in the 3/4-ball) plus the normalizing sum; normalized
functions sum to one exactly on the covered set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .grid import GridError, GridFunction, Region, _ball_window, multi_indices

__all__ = [
    "WhitneyCover",
    "PartitionOfUnity",
    "distance_to_complement",
    "cover",
    "neighbor_sets",
    "partition_of_unity",
    "verify_cover",
]


@dataclass(frozen=True)
class WhitneyCover:
    centers: np.ndarray  # (K, n)
    radii: np.ndarray  # (K,)
    max_radius: float
    neighbors: tuple = ()  # per-ball sorted index arrays, filled by neighbor_sets

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        r = np.asarray(self.radii, dtype=float)
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    def __len__(self) -> int:
        return len(self.radii)

    def with_neighbors(self) -> "WhitneyCover":
        if self.neighbors:
            return self
        return WhitneyCover(self.centers, self.radii, self.max_radius, neighbor_sets(self))

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
        d_cells = ndimage.distance_transform_edt(mask)
    d = d_cells * grid.spacing
    centers = grid.cell_centers()
    lo = grid.box_lo
    hi = grid.box_hi
    wall = np.minimum(
        np.min(centers - lo, axis=-1),
        np.min(hi - centers, axis=-1),
    )
    return np.minimum(d, wall)


def cover(grid: GridFunction, mask, R: float) -> WhitneyCover:
    """Greedy Vitali construction of a Whitney cover of the mask."""
    if isinstance(mask, Region):
        mask = mask.mask_for(grid)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return WhitneyCover(np.zeros((0, grid.n)), np.zeros(0), float(R)).with_neighbors()

    d = distance_to_complement(grid, mask)
    centers_all = grid.cell_centers()
    flat_idx = np.flatnonzero(mask.reshape(-1))
    d_flat = d.reshape(-1)[flat_idx]
    pts = centers_all.reshape(-1, grid.n)[flat_idx]
    order = np.lexsort((flat_idx, -d_flat))

    kc = np.empty((len(flat_idx), grid.n))
    kr = np.empty(len(flat_idx))
    k = 0
    covered = np.zeros(len(flat_idx), dtype=bool)
    left = len(flat_idx)
    for oi in order:
        if not left:
            break
        x = pts[oi]
        r = min(d_flat[oi] / 12.0, float(R))
        if r <= 0:
            continue
        if k and np.any(np.linalg.norm(kc[:k] - x, axis=1) < (r + kr[:k]) / 4.0):
            continue
        kc[k], kr[k] = x, r
        k += 1
        newly = (np.linalg.norm(pts - x, axis=1) < r / 2.0) & ~covered
        left -= int(np.count_nonzero(newly))
        covered |= newly
    return WhitneyCover(kc[:k].copy(), kr[:k].copy(), float(R)).with_neighbors()


def neighbor_sets(cov: WhitneyCover) -> tuple:
    """A_i = { j : (3/4)B_i intersects (3/4)B_j }, always containing i."""
    k = len(cov)
    if k == 0:
        return ()
    tree = cKDTree(cov.centers)
    rmax = float(cov.radii.max())
    out = []
    for i in range(k):
        cand = tree.query_ball_point(cov.centers[i], 0.75 * (cov.radii[i] + rmax))
        cand = np.asarray(sorted(cand), dtype=int)
        dist = np.linalg.norm(cov.centers[cand] - cov.centers[i], axis=1)
        keep = cand[dist < 0.75 * (cov.radii[i] + cov.radii[cand])]
        out.append(keep)
    return tuple(out)


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
    """Raw bumps and their normalizing sum for a Whitney cover."""

    cover: WhitneyCover
    tree: cKDTree = field(repr=False, default=None)

    def __post_init__(self):
        if self.tree is None and len(self.cover):
            object.__setattr__(self, "tree", cKDTree(self.cover.centers))

    def bump(self, i: int, points: np.ndarray) -> np.ndarray:
        """Raw bump of ball i: one on the half-ball, support in the 3/4-ball."""
        pts = np.asarray(points, dtype=float)
        s = np.linalg.norm(pts - self.cover.centers[i], axis=-1) / (0.75 * self.cover.radii[i])
        return _profile(s)

    def balls_at(self, points: np.ndarray) -> list:
        """Indices of balls whose 3/4-ball could contain each point."""
        if not len(self.cover):
            return [np.zeros(0, dtype=int)] * len(np.atleast_2d(points))
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rmax = float(self.cover.radii.max())
        raw = self.tree.query_ball_point(pts, 0.75 * rmax)
        return [np.asarray(sorted(r), dtype=int) for r in raw]

    def denominator(self, points: np.ndarray) -> np.ndarray:
        """Sum of all raw bumps at the points, accumulated ball by ball."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts), dtype=float)
        touching: dict[int, list] = {}
        for row, idxs in enumerate(self.balls_at(pts)):
            for j in idxs:
                touching.setdefault(int(j), []).append(row)
        for j, rows in sorted(touching.items()):
            rows = np.asarray(rows, dtype=int)
            out[rows] += self.bump(j, pts[rows])
        return out

    def psi_values(self, i: int, points: np.ndarray) -> np.ndarray:
        """Normalized partition function of ball i at the points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        num = self.bump(i, pts)
        den = np.ones(len(pts), dtype=float)
        active = num > 0
        if active.any():
            den[active] = self.denominator(pts[active])
        return np.where(num > 0, num / den, 0.0)

    # -- grid-wide fields, built ball-locally -------------------------------

    def grid_fields(self, grid: GridFunction):
        """Raw bump grid values per ball (sparse) and the denominator field.

        Returns ``(cells_per_ball, bump_per_ball, denom)`` where
        ``cells_per_ball[i]`` is an index array into the flattened grid and
        ``bump_per_ball[i]`` the corresponding raw bump values.
        """
        denom = np.zeros(int(np.prod(grid.dims)), dtype=float)
        cells_per_ball = []
        vals_per_ball = []
        for i in range(len(self.cover)):
            slices, pts = _ball_window(grid, self.cover.centers[i], 0.75 * self.cover.radii[i])
            vals = self.bump(i, pts)
            keep = vals > 0
            local = np.nonzero(keep)
            flat = np.ravel_multi_index(tuple(ix + s.start for ix, s in zip(local, slices)), grid.dims)
            cells_per_ball.append(flat)
            vals_per_ball.append(vals[keep])
            denom[flat] += vals[keep]
        return cells_per_ball, vals_per_ball, denom

    def psi_grid(self, grid: GridFunction):
        """Normalized partition values on the grid, per ball (sparse)."""
        cells, vals, denom = self.grid_fields(grid)
        out = []
        for i in range(len(self.cover)):
            d = denom[cells[i]]
            out.append(vals[i] / np.where(d > 0, d, 1.0))
        return cells, out, denom


def partition_of_unity(cov: WhitneyCover, m: int = 1) -> PartitionOfUnity:
    """Partition of unity subordinate to {3/4 B_i}; ``m`` is the top
    derivative order the bound reports will sample."""
    del m  # the profile is smooth to all orders; m only matters to reports
    return PartitionOfUnity(cover=cov.with_neighbors())


def pou_derivative_bound_report(
    pou: PartitionOfUnity, m: int, samples_per_ball: int = 5, max_balls: int = 64
) -> dict:
    """Measured sup |D^l psi_i| r_i^l per order l <= m over sampled balls.

    Derivatives are central finite differences at ball-adapted spacing
    (r_i/32) of the normalized partition function, sampled on a small
    lattice inside each 3/4-ball; ``max_balls`` balls are visited with a
    deterministic stride.
    """
    cov = pou.cover
    worst = {ell: 0.0 for ell in range(m + 1)}
    n = cov.centers.shape[1] if len(cov) else 1
    stride = max(1, len(cov) // max_balls)
    for i in range(0, len(cov), stride):
        c = cov.centers[i]
        r = cov.radii[i]
        ticks = np.linspace(-0.6 * r, 0.6 * r, samples_per_ball)
        mesh = np.meshgrid(*([ticks] * n), indexing="ij")
        pts = np.stack([mm.reshape(-1) for mm in mesh], axis=-1) + c
        hh = r / 32.0
        for ell in range(m + 1):
            sq = np.zeros(len(pts))
            for sig in multi_indices(n, ell):
                vals = _fd_multi(lambda q: pou.psi_values(i, q), pts, sig, hh)
                sq += vals**2
            worst[ell] = max(worst[ell], float(np.sqrt(sq).max()) * r**ell)
    return {"sup_scaled_derivative": worst}


def _fd_multi(f, pts: np.ndarray, sigma, h: float) -> np.ndarray:
    """Central finite difference of a callable at arbitrary points."""
    n = pts.shape[-1]
    # build tensor stencil by composing central differences per axis
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
    out = np.zeros(len(pts))
    for off, w in stencil:
        out += w * f(pts + off)
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _pair_intersection_measure(c1, r1, c2, r2, n: int, resolution: int = 24) -> float:
    """Deterministic quadrature of |B(c1,r1) cap B(c2,r2)|."""
    lo = np.maximum(c1 - r1, c2 - r2)
    hi = np.minimum(c1 + r1, c2 + r2)
    if np.any(hi <= lo):
        return 0.0
    hs = (hi - lo) / resolution
    axes = [lo[a] + (np.arange(resolution) + 0.5) * hs[a] for a in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
    inside = (np.linalg.norm(pts - c1, axis=1) < r1) & (np.linalg.norm(pts - c2, axis=1) < r2)
    return float(inside.sum()) * float(np.prod(hs))


def verify_cover(cov: WhitneyCover, grid: GridFunction, mask, pair_samples: int = 64) -> dict:
    """Check (W1)-(W7) for a cover against its mask; measured constants."""
    if isinstance(mask, Region):
        mask = mask.mask_for(grid)
    mask = np.asarray(mask, dtype=bool)
    out: dict = {}
    centers_flat = grid.cell_centers().reshape(-1, grid.n)
    mask_flat = mask.reshape(-1)
    pts_in = centers_flat[mask_flat]
    k = len(cov)

    if k == 0:
        out["W1"] = not mask.any()
        for key in ("W2", "W3", "W4", "W5", "W6", "W7"):
            out[key] = True
        out["overlap_max"] = 0
        return out

    # (W1): every mask cell inside some open half-ball
    covered = np.zeros(len(pts_in), dtype=bool)
    for i in range(k):
        covered |= np.linalg.norm(pts_in - cov.centers[i], axis=1) < cov.radii[i] / 2.0
    out["W1"] = bool(covered.all())

    # (W2)
    out["W2"] = bool(np.all(cov.radii <= cov.max_radius * (1 + 1e-12)))

    # (W3): 8B inside the mask (cells and box), 16B meets the complement
    w3 = True
    lo, hi = grid.box_lo, grid.box_hi
    for i in range(k):
        c, r = cov.centers[i], cov.radii[i]
        if np.any(c - 8 * r < lo) or np.any(c + 8 * r > hi):
            w3 = False
            break
        slices, centers = _ball_window(grid, c, 16 * r)
        dist = np.linalg.norm(centers - c, axis=-1)
        outside = ~mask[slices]
        if np.any(outside[dist < 8 * r]):
            w3 = False
            break
        pokes_out = np.any(c - 16 * r < lo + grid.spacing / 2) or np.any(
            c + 16 * r > hi - grid.spacing / 2
        )
        if not (np.any(outside[dist < 16 * r]) or pokes_out):
            w3 = False
            break
    out["W3"] = bool(w3)

    # (W4): radius comparability of intersecting balls
    tree = cKDTree(cov.centers)
    rmax = float(cov.radii.max())
    w4 = True
    for i in range(k):
        cand = np.asarray(sorted(tree.query_ball_point(cov.centers[i], cov.radii[i] + rmax)), dtype=int)
        d = np.linalg.norm(cov.centers[cand] - cov.centers[i], axis=1)
        touching = cand[d < cov.radii[i] + cov.radii[cand]]
        ratios = cov.radii[i] / cov.radii[touching]
        if np.any(ratios > 2 + 1e-12) or np.any(ratios < 0.5 - 1e-12):
            w4 = False
            break
    out["W4"] = bool(w4)

    # (W5): quarter-balls pairwise disjoint
    w5 = True
    for i in range(k):
        cand = np.asarray(sorted(tree.query_ball_point(cov.centers[i], (cov.radii[i] + rmax) / 4.0)), dtype=int)
        cand = cand[cand != i]
        d = np.linalg.norm(cov.centers[cand] - cov.centers[i], axis=1)
        if np.any(d < (cov.radii[i] + cov.radii[cand]) / 4.0 - 1e-12):
            w5 = False
            break
    out["W5"] = bool(w5)

    # (W6)
    cov2 = cov.with_neighbors()
    counts = [len(a) for a in cov2.neighbors]
    out["overlap_max"] = int(max(counts))
    out["W6"] = bool(max(counts) <= (64 if grid.n == 1 else 256))

    # (W7) on sampled neighbor pairs
    pairs = []
    for i in range(k):
        for j in cov2.neighbors[i]:
            if j != i:
                pairs.append((i, int(j)))
    stride = max(1, len(pairs) // pair_samples)
    w7_const = 0.0
    w7 = True
    for i, j in pairs[::stride]:
        inter = _pair_intersection_measure(
            cov.centers[i], cov.radii[i], cov.centers[j], 0.75 * cov.radii[j], grid.n
        )
        omega = math.pi ** (grid.n / 2) / math.gamma(grid.n / 2 + 1)
        big = omega * max(cov.radii[i], cov.radii[j]) ** grid.n
        if inter <= 0:
            w7 = False
            break
        w7_const = max(w7_const, big / inter)
    out["W7"] = bool(w7)
    out["W7_constant"] = w7_const
    return out
