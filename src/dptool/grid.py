"""Sampled functions on uniform lattices: the substrate for every operator.

A :class:`GridFunction` holds point samples of a scalar or vector field at
the centers of a uniform cell lattice over an axis-aligned box, the
extent ``box(lo, hi)`` hands to ``create_grid``.  All quadrature is the
midpoint rule over cell centers, and all derivatives are finite
differences (central in the interior, one-sided of the same formal order
at the boundary).  Every region integrated over or restricted to is an
open ball (:class:`Region`, built by ``ball``), and a cell is in B_r(c)
iff its center x has |x - c|^2 < r^2.  ``_ball_rows`` is the one test of
this predicate: it takes a family of balls at once, on a window of the
lattice around each ball, and the ball-family scans, ``Region.mask_for``
and the Whitney W1 and W3 checks all take their ball cells from it.
Reductions go through numpy's pairwise summation, so results are
reproducible bit-for-bit run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridError",
    "StencilError",
    "GridFunction",
    "Region",
    "box",
    "ball",
    "multi_indices",
    "multi_indices_upto",
    "mi_factorial",
    "mi_power",
    "mi_sub",
    "create_grid",
    "partial_derivative",
    "derivative_array",
    "derivative_norm",
    "integrate",
    "measure",
    "mean_over",
    "weighted_average",
]


class GridError(ValueError):
    """Invalid grid data or grid arguments."""


class StencilError(GridError):
    """Requested derivative order is not supported by the lattice extents."""


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridFunction:
    """Samples of an R^k-valued field at cell centers of a uniform lattice.

    ``values`` has shape ``dims + (components,)`` in C order, which matches
    the flat point-major/component-fastest layout of the DPGRID format.
    """

    n: int
    dims: tuple[int, ...]
    origin: np.ndarray
    spacing: float
    components: int
    values: np.ndarray

    def __post_init__(self):
        if not (1 <= self.n <= 3):
            raise GridError(f"dimension must be 1..3, got {self.n}")
        if len(self.dims) != self.n:
            raise GridError("dims length must equal n")
        if any(d < 2 for d in self.dims):
            raise GridError(f"every axis needs at least 2 cells, got {self.dims}")
        if not (0 < self.spacing < math.inf):
            raise GridError(f"spacing must be finite and positive, got {self.spacing}")
        origin = np.ascontiguousarray(np.asarray(self.origin, dtype=float))
        if origin.shape != (self.n,) or not np.all(np.isfinite(origin)):
            raise GridError(f"origin must be {self.n} finite coordinates, got {origin.tolist()}")
        origin.setflags(write=False)
        object.__setattr__(self, "origin", origin)
        if self.components < 1:
            raise GridError("components must be >= 1")
        vals = np.asarray(self.values, dtype=float)
        expected = tuple(self.dims) + (self.components,)
        if vals.shape != expected:
            raise GridError(f"values shape {vals.shape} incompatible with dims {self.dims} "
                            f"x components {self.components}")
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            coord = self.origin + (np.asarray(bad[:-1]) + 0.5) * self.spacing
            raise GridError(f"non-finite sample at grid point {coord.tolist()}")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", float(self.spacing))

    # -- geometry ---------------------------------------------------------

    def axis_centers(self, axis: int) -> np.ndarray:
        return self.origin[axis] + (np.arange(self.dims[axis]) + 0.5) * self.spacing

    def cell_centers(self) -> np.ndarray:
        """All cell centers, shape ``dims + (n,)``."""
        return _window_centers(self, (slice(None),) * self.n)

    @property
    def box_lo(self) -> np.ndarray:
        return self.origin

    @property
    def box_hi(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.spacing

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.n

    # -- data access -------------------------------------------------------

    def scalar(self) -> np.ndarray:
        if self.components != 1:
            raise GridError(f"expected scalar field, got {self.components} components")
        return self.values[..., 0]

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        values = np.asarray(values, dtype=float)
        comps = values.shape[-1] if values.ndim == self.n + 1 else 1
        return GridFunction(self.n, self.dims, self.origin, self.spacing, comps, values.reshape(self.dims + (comps,)))

    def same_lattice(self, other: "GridFunction") -> bool:
        return (
            self.n == other.n
            and self.dims == other.dims
            and self.spacing == other.spacing
            and bool(np.all(self.origin == other.origin))
        )


@dataclass(frozen=True)
class Region:
    """An open ball B_r(c) of the grid's space; a cell belongs to it iff its
    center x has |x - c|^2 < r^2."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not np.all(np.isfinite(np.asarray(self.center, dtype=float))):
            raise GridError(f"ball center must be finite, got {np.asarray(self.center).tolist()}")
        # radius 0 stays allowed: the empty open ball
        if not 0.0 <= float(self.radius) < math.inf:
            raise GridError(f"ball radius must be finite and >= 0, got {self.radius}")

    def mask_for(self, grid: GridFunction) -> np.ndarray:
        """Boolean array over cells whose center belongs to the ball."""
        # broadcast as ``centers - c`` would, or raise as it does
        c = np.broadcast_to(np.asarray(self.center, dtype=float), (grid.n,))
        mask = np.zeros(math.prod(grid.dims), dtype=bool)
        for _ids, (cells,) in _ball_rows(grid, c[None], float(self.radius)):
            mask[cells] = True
        return mask.reshape(grid.dims)


def _window_centers(grid: GridFunction, slices: tuple) -> np.ndarray:
    """The cell centers of a lattice window, ``grid.cell_centers()[slices]``
    at the window's cost."""
    return _mesh([grid.axis_centers(i)[s] for i, s in enumerate(slices)])


def _mesh(axes: list) -> np.ndarray:
    """The points of the lattice with these axis coordinates, shape
    ``(len(axes[0]), ..., len(axes[-1]), n)``, built in place."""
    points = np.empty(tuple(len(a) for a in axes) + (len(axes),))
    for i, a in enumerate(axes):
        points[..., i] = a.reshape((-1,) + (1,) * (len(axes) - 1 - i))
    return points


# The most window cells that ``_ball_windows`` builds at once: it caps the
# squared distances, flat indices and masks of one chunk of balls, and so
# what a scan gathers from one chunk.  Of 2^13 to 2^18 cells, 2^15 ran the
# Gehring and admissibility scans fastest on a 2-core x86-64 host.
_WINDOW_CELLS = 1 << 15


def _ball_windows(grid: GridFunction, centers: np.ndarray, reach: np.ndarray):
    """The lattice windows of K balls, ``_window_bounds`` around each center
    at its reach, one chunk of equal-shape windows at a time.

    Yields ``(ids, cells, d2)``: the chunk's positions in ``centers``, the
    flat lattice index of every window cell, shape ``(len(ids),) + shape``,
    and the cell's squared distance from its ball's center, summed over the
    axes in order.  A chunk holds at most ``_WINDOW_CELLS`` cells, or one
    window where a window is larger.
    """
    centers = np.asarray(centers, dtype=float)
    start, stop = _window_bounds(grid, centers, reach)
    widths = stop - start
    axes = [grid.axis_centers(a) for a in range(grid.n)]
    strides = np.cumprod((grid.dims + (1,))[:0:-1])[::-1]  # C order, in cells
    for members in _groups(widths):
        shape = widths[members[0]].tolist()
        step = max(1, _WINDOW_CELLS // max(1, math.prod(shape)))
        for first in range(0, len(members), step):
            ids = members[first:first + step]
            cells = np.zeros((len(ids),) + tuple(shape), dtype=np.intp)
            d2 = np.zeros(cells.shape)
            for a, width in enumerate(shape):
                idx = start[ids, a][:, None] + np.arange(width)
                lift = (len(ids),) + (1,) * a + (width,) + (1,) * (grid.n - 1 - a)
                cells += (idx * strides[a]).reshape(lift)
                d2 += ((axes[a][idx] - centers[ids, a][:, None]) ** 2).reshape(lift)
            yield ids, cells, d2


def _ball_rows(grid: GridFunction, centers: np.ndarray, *radii):
    """The cells of K open balls B_r(c) at once, for each of ``radii`` (one
    radius, or one per center), grouped into rows of equal length.

    Yields ``(ids, rows)``: positions in ``centers`` and, per radius, a
    ``(len(ids), count)`` array of flat lattice indices whose row i holds,
    in C order, the cells x with |x - c|^2 < r^2 for c = ``centers[ids[i]]``,
    r^2 squared in numpy like the distances.  Balls share a group
    when they share a window shape and a cell count at every radius, so a
    row reduction of a gathered field is the one-dimensional reduction
    over each ball.
    """
    centers = np.asarray(centers, dtype=float)
    rs = [np.broadcast_to(np.asarray(r, dtype=float), (len(centers),)) for r in radii]
    limits = [rr * rr for rr in rs]
    for ids, cells, d2 in _ball_windows(grid, centers, np.maximum.reduce(rs)):
        cells, d2 = cells.reshape(len(ids), -1), d2.reshape(len(ids), -1)
        inside = [d2 < lim[ids, None] for lim in limits]
        counts = np.stack([m.sum(axis=1) for m in inside], axis=1)
        for sel in _groups(counts):
            yield ids[sel], tuple(cells[sel][m[sel]].reshape(len(sel), c) for m, c in zip(inside, counts[sel[0]]))


def _groups(keys: np.ndarray) -> list:
    """The positions of the rows of a ``(K, m)`` integer array, one
    ascending array per distinct row, the rows in lexicographic order."""
    if not len(keys):
        return []
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    return np.split(order, np.flatnonzero(np.any(ranked[1:] != ranked[:-1], axis=1)) + 1)


def _window_bounds(grid: GridFunction, centers: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
    """Window slice bounds for K balls at once: integer ``(K, n)`` start and
    stop arrays, one cell of margin around each ball, clamped to the lattice
    (a NaN bound clamps to 0 and infinities to the lattice, warning-free)."""
    h = grid.spacing
    dims = np.asarray(grid.dims, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        pos = (np.asarray(centers, dtype=float) - grid.origin) / h - 0.5  # fractional cell index
        reach = (np.asarray(r, dtype=float) / h)[:, None]
        lo = np.floor(np.fmin(np.fmax(0.0, pos - reach - 1.0), dims))
        hi = np.ceil(np.fmin(np.fmax(0.0, pos + reach + 2.0), dims))
    return lo.astype(int), hi.astype(int)


def _ratio(num: float, den: float) -> float:
    """num/den for den > 0; otherwise 0.0 when num is 0 as well, and inf."""
    return num / den if den > 0 else (0.0 if num == 0 else math.inf)


def box(lo: Sequence[float], hi: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The extent ``(lo, hi)`` of a lattice, for ``create_grid``."""
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def ball(center: Sequence[float], radius: float) -> Region:
    return Region(center=np.asarray(center, dtype=float), radius=float(radius))


# ---------------------------------------------------------------------------
# multi-index machinery
# ---------------------------------------------------------------------------


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices of exact order, lexicographically sorted."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining + 1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), order, n)
    return sorted(out)


def multi_indices_upto(n: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices of order <= ``order``, ordered by (|sigma|, lex)."""
    out: list[tuple[int, ...]] = []
    for ell in range(order + 1):
        out.extend(multi_indices(n, ell))
    return out


def mi_factorial(sigma: Sequence[int]) -> int:
    r = 1
    for s in sigma:
        r *= math.factorial(int(s))
    return r


def mi_power(x: np.ndarray, sigma: Sequence[int]) -> np.ndarray:
    """x^sigma = prod_i x_i^{sigma_i}, broadcast over leading axes of x."""
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape[:-1], dtype=float)
    for i, s in enumerate(sigma):
        if s:
            out = out * x[..., i] ** int(s)
    return out


def mi_sub(tau: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    if any(t < s for t, s in zip(tau, sigma)):
        raise GridError(f"multi-index difference {tuple(tau)} - {tuple(sigma)} undefined")
    return tuple(int(t - s) for t, s in zip(tau, sigma))


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def create_grid(
    extent: tuple[np.ndarray, np.ndarray],
    resolution: int | Sequence[int],
    sampler: Callable[[np.ndarray], np.ndarray],
) -> GridFunction:
    """Sample ``sampler`` at the cell centers of a uniform lattice over the
    box ``extent = box(lo, hi)``.

    ``sampler`` receives an ``(N, n)`` array of points and returns ``(N,)``
    or ``(N, k)`` values.  A non-finite sample aborts with the offending
    coordinate.
    """
    lo, hi = extent
    n = lo.size
    if np.isscalar(resolution):
        res = (int(resolution),) * n
    else:
        res = tuple(int(r) for r in resolution)
    if len(res) != n or any(r < 2 for r in res):
        raise GridError(f"resolution must give >= 2 cells per axis, got {res}")
    widths = (hi - lo) / np.asarray(res)
    if not np.allclose(widths, widths[0], rtol=1e-12, atol=0):
        raise GridError("box/resolution must give a uniform spacing on all axes")
    h = float(widths[0])
    if not h > 0:
        raise GridError("box must have positive extent")

    pts = _mesh([lo[i] + (np.arange(res[i]) + 0.5) * h for i in range(n)]).reshape(-1, n)
    raw = np.asarray(sampler(pts), dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    comps = raw.shape[1]
    if not np.all(np.isfinite(raw)):
        bad = int(np.argwhere(~np.isfinite(raw))[0][0])
        raise GridError(f"sampler returned non-finite value at {pts[bad].tolist()}")
    values = raw.reshape(tuple(res) + (comps,))
    return GridFunction(n=n, dims=tuple(res), origin=lo, spacing=h, components=comps, values=values)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


# second-order stencils; boundary rows are one-sided of the same formal
# order (exact on the same polynomial degree as the interior stencil)
_D2_INT = np.array([1.0, -2.0, 1.0])
_D2_EDGE = [np.array([2.0, -5.0, 4.0, -1.0])]
_D3_INT = np.array([-0.5, 1.0, 0.0, -1.0, 0.5])
_D3_EDGE = [
    np.array([-2.5, 9.0, -12.0, 7.0, -1.5]),  # derivative at the edge row
    np.array([-1.5, 5.0, -6.0, 3.0, -0.5]),  # derivative one row in
]


def _apply_stencil(arr: np.ndarray, axis: int, interior: np.ndarray, edge: list,
                   h: float, power: int) -> np.ndarray:
    """One-axis derivative: centered interior, per-row one-sided boundaries."""
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    out = np.zeros_like(a)
    half = len(interior) // 2
    for k, w in enumerate(interior):
        if w:
            out[half : n - half] += w * a[k : n - 2 * half + k]
    sign = -1.0 if power % 2 else 1.0
    for row, coeffs in enumerate(edge):
        out[row] = sum(w * a[j] for j, w in enumerate(coeffs) if w)
        out[n - 1 - row] = sign * sum(w * a[n - 1 - j] for j, w in enumerate(coeffs) if w)
    out /= h**power
    return np.moveaxis(out, 0, axis)


def _axis_derivative(arr: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """Per-axis derivative of order 1..3, second-order accurate throughout."""
    if order == 1:
        return np.gradient(arr, h, axis=axis, edge_order=2)
    if order == 2:
        return _apply_stencil(arr, axis, _D2_INT, _D2_EDGE, h, 2)
    if order == 3:
        return _apply_stencil(arr, axis, _D3_INT, _D3_EDGE, h, 3)
    out = _axis_derivative(arr, h, axis, 3)
    return _axis_derivative(out, h, axis, order - 3)


def partial_derivative(u: GridFunction, sigma: Sequence[int]) -> GridFunction:
    """Finite-difference partial derivative for a multi-index.

    Central differences in the interior, one-sided differences of the same
    formal order at the boundary (numpy ``gradient`` with ``edge_order=2``),
    applied once per unit of each multi-index entry.  Exact on polynomials
    up to the stencil order.
    """
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != u.n:
        raise GridError(f"multi-index length {len(sigma)} != dimension {u.n}")
    if any(s < 0 for s in sigma):
        raise GridError("multi-index entries must be nonnegative")
    for axis, s in enumerate(sigma):
        if s > 0 and u.dims[axis] < max(3, s + 2):
            raise StencilError(
                f"axis {axis} has {u.dims[axis]} cells, too few for order-{s} stencil"
            )
    out = u.values
    for axis, s in enumerate(sigma):
        if s:
            out = _axis_derivative(out, u.spacing, axis, s)
    return u.with_values(out)


def derivative_array(u: GridFunction, ell: int) -> dict[tuple[int, ...], GridFunction]:
    """The full order-``ell`` derivative array, one field per multi-index."""
    return {sig: partial_derivative(u, sig) for sig in multi_indices(u.n, ell)}


def derivative_norm(u: GridFunction, ell: int) -> GridFunction:
    """Pointwise Euclidean norm of the order-``ell`` derivative array; at
    order 0 that is |u|, ``np.abs`` of a scalar field."""
    if ell == 0 and u.components == 1:
        return u.with_values(np.abs(u.values))
    return _array_norm(u, derivative_array(u, ell))


def _array_norm(u: GridFunction, darray: dict) -> GridFunction:
    """Pointwise Euclidean norm of a derivative array of u that
    ``derivative_array`` built, so that a caller holding the array need not
    build it again."""
    sq = np.zeros(u.dims, dtype=float)
    for d in darray.values():
        sq = sq + np.sum(d.values**2, axis=-1)
    return u.with_values(np.sqrt(sq)[..., None])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def integrate(
    u: GridFunction,
    region: Region,
    power: float | None = None,
) -> np.ndarray:
    """Midpoint-rule integral per component; optional |u|^power integrand."""
    m = region.mask_for(u)
    if not m.any():
        raise GridError("empty region")
    vals = u.values
    if power is not None:
        if power < 0:
            raise GridError("power must be >= 0")
        vals = np.abs(vals) ** float(power)
    sel = vals[m, :]
    return sel.sum(axis=0) * u.cell_volume


def measure(grid: GridFunction, region: Region) -> float:
    """Lattice measure of the region: cell count times cell volume."""
    return float(region.mask_for(grid).sum()) * grid.cell_volume


def mean_over(u: GridFunction, region: Region, power: float | None = None) -> np.ndarray:
    """Integral average over the region, per component."""
    return integrate(u, region, power) / measure(u, region)


def weighted_average(u: GridFunction, region: Region | None, eta: GridFunction) -> np.ndarray:
    """Weighted average f_{B,eta} = (1/||eta||_L1) * integral of f*eta."""
    if not u.same_lattice(eta):
        raise GridError("weight must live on the same lattice")
    m = np.ones(u.dims, dtype=bool) if region is None else region.mask_for(u)
    if not m.any():
        raise GridError("empty region")
    w = eta.scalar()[m]
    norm = np.abs(w).sum() * u.cell_volume
    if norm <= 0.0:
        raise GridError("degenerate weight: ||eta||_L1(region) = 0")
    sel = u.values[m, :]
    return (sel * w[:, None]).sum(axis=0) * u.cell_volume / norm


def _require_premises(u: GridFunction, region: Region, eta: GridFunction,
                      mass_floor: float | None, ell: int = 0, tol: float = 0.0) -> None:
    """The premises of the pointwise lemmas on one ball: eta's mass is at
    least ``mass_floor`` times the ball's measure (unchecked when None), and
    the eta-weighted averages (D^sigma u)_{B,eta} of every |sigma| < ell
    vanish to ``tol`` relative to 1 + max |u|.  Raises GridError otherwise."""
    if mass_floor is not None and float(integrate(eta, region)[0]) < measure(u, region) * mass_floor - 1e-12:
        raise GridError(f"cutoff mass below {mass_floor:g} of the ball volume")
    worst = 0.0
    for k in range(ell):
        for df in derivative_array(u, k).values():
            worst = max(worst, float(np.abs(weighted_average(df, region, eta)).max()))
    resid = worst / (1.0 + float(np.abs(u.values).max()))
    if resid > tol:
        raise GridError(f"weighted averages below order {ell} do not vanish: residual {resid:.3e}")
