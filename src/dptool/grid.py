"""Sampled functions on uniform lattices: the substrate for every operator.

A :class:`GridFunction` holds point samples of a scalar or vector field at
the centers of a uniform cell lattice over an axis-aligned box.  All
quadrature is the midpoint rule over cell centers, all derivatives are
finite differences (central in the interior, one-sided of the same formal
order at the boundary), and a cell is in the open ball B_r(c) iff its
center x has |x - c|^2 < r^2.  ``_ball_cells`` is the only place that
tests this predicate; ``Region.mask_for`` and every per-ball scan call it.
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
            if vals.size == int(np.prod(self.dims)) * self.components:
                vals = vals.reshape(expected)
            else:
                raise GridError(
                    f"values shape {vals.shape} incompatible with dims {self.dims} "
                    f"x components {self.components}"
                )
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
    """A subregion of the grid box: axis box or open ball."""

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "ball":
            if not np.all(np.isfinite(np.asarray(self.center, dtype=float))):
                raise GridError(f"ball center must be finite, got {np.asarray(self.center).tolist()}")
            # radius 0 stays allowed: the empty open ball
            if not 0.0 <= float(self.radius) < math.inf:
                raise GridError(f"ball radius must be finite and >= 0, got {self.radius}")

    def mask_for(self, grid: GridFunction) -> np.ndarray:
        """Boolean array over cells whose center belongs to the region."""
        if self.kind == "ball":
            slices, _centers, _d2, (inside,) = _ball_cells(grid, self.center, float(self.radius))
            mask = np.zeros(grid.dims, dtype=bool)
            mask[slices] = inside
            return mask
        if self.kind == "box":
            centers = grid.cell_centers()
            lo = np.asarray(self.lo)
            hi = np.asarray(self.hi)
            tol = 1e-12 * grid.spacing
            inside = np.all((centers >= lo - tol) & (centers <= hi + tol), axis=-1)
            return inside
        raise GridError(f"unknown region kind {self.kind!r}")


def _ball_cells(grid: GridFunction, c, *radii: float):
    """The cells of the open balls B_r(c), one mask per radius, on one window.

    Returns the slices of the lattice window around the largest ball (one
    cell of margin, clamped to the lattice), its cell centers (bitwise equal
    to ``grid.cell_centers()[slices]``), their squared distances d2 from
    ``c`` and one mask ``d2 < r**2`` per radius: the same cells, in the same
    C order, as the test on the full grid, at O(r^n) cost instead of O(grid).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (grid.n,):  # as ``centers - c`` broadcasts, or raise as it does
        c = np.broadcast_to(c, (grid.n,))
    lo, hi = _window_bounds(grid, c[None], [max(radii)])
    slices = tuple(slice(a, b) for a, b in zip(lo[0].tolist(), hi[0].tolist()))
    centers = _window_centers(grid, slices)
    d2 = np.sum((centers - c) ** 2, axis=-1)
    return slices, centers, d2, tuple(d2 < float(r) ** 2 for r in radii)


def _window_centers(grid: GridFunction, slices: tuple) -> np.ndarray:
    """The cell centers of a lattice window, ``grid.cell_centers()[slices]``
    at the window's cost."""
    axes = [grid.axis_centers(i)[s] for i, s in enumerate(slices)]
    centers = np.empty(tuple(len(a) for a in axes) + (grid.n,))
    for i, a in enumerate(axes):
        centers[..., i] = a.reshape((-1,) + (1,) * (grid.n - 1 - i))
    return centers


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


def box(lo: Sequence[float], hi: Sequence[float]) -> Region:
    return Region(kind="box", lo=np.asarray(lo, dtype=float), hi=np.asarray(hi, dtype=float))


def ball(center: Sequence[float], radius: float) -> Region:
    return Region(kind="ball", center=np.asarray(center, dtype=float), radius=float(radius))


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
    region: Region,
    resolution: int | Sequence[int],
    sampler: Callable[[np.ndarray], np.ndarray],
) -> GridFunction:
    """Sample ``sampler`` at the cell centers of a uniform lattice over a box.

    ``sampler`` receives an ``(N, n)`` array of points and returns ``(N,)``
    or ``(N, k)`` values.  A non-finite sample aborts with the offending
    coordinate.
    """
    if region.kind != "box":
        raise GridError("create_grid needs a box region")
    lo = np.asarray(region.lo, dtype=float)
    hi = np.asarray(region.hi, dtype=float)
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

    axes = [lo[i] + (np.arange(res[i]) + 0.5) * h for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
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
    """Pointwise Euclidean norm of the order-``ell`` derivative array."""
    if ell == 0:
        sq = np.sum(u.values**2, axis=-1)
    else:
        sq = np.zeros(u.dims, dtype=float)
        for sig in multi_indices(u.n, ell):
            d = partial_derivative(u, sig)
            sq = sq + np.sum(d.values**2, axis=-1)
    return u.with_values(np.sqrt(sq)[..., None])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def integrate(
    u: GridFunction,
    region: Region | None = None,
    power: float | None = None,
) -> np.ndarray:
    """Midpoint-rule integral per component; optional |u|^power integrand."""
    if region is None:
        m = np.ones(u.dims, dtype=bool)
    else:
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


def measure(grid: GridFunction, region: Region | None = None) -> float:
    """Lattice measure of the region: cell count times cell volume."""
    if region is None:
        return float(np.prod(grid.dims)) * grid.cell_volume
    m = region.mask_for(grid)
    return float(m.sum()) * grid.cell_volume


def mean_over(u: GridFunction, region: Region | None = None, power: float | None = None) -> np.ndarray:
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
