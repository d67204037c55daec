"""Weighted mean-value polynomials.

Given u, a region B, and a weight eta, the unique polynomial P of degree at
most m-1 whose eta-weighted averages over B of all partial derivatives up
to order m-1 match those of u.  Coefficients are computed by the top-down
recursion in decreasing multi-index order

    a_sigma = (1/sigma!) [ (d_sigma u)_{B,eta}
              - sum_{tau > sigma} tau!/(tau-sigma)! a_tau ((x-x0)^(tau-sigma))_{B,eta} ],

using the same lattice quadrature for the monomial averages, so the
defining moment conditions re-measure to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridError,
    GridFunction,
    Region,
    _ratio,
    _require_premises,
    derivative_array,
    derivative_norm,
    mean_over,
    mi_factorial,
    mi_power,
    mi_sub,
    multi_indices,
    multi_indices_upto,
    weighted_average,
)
from .maximal import MaximalSpec, _ratio_sup, maximal_function

__all__ = [
    "MVPolynomial",
    "fit",
    "fit_on_cells",
    "moment_residual",
    "coefficient_bounds_report",
    "integration_by_parts_report",
    "kernel_bound_report",
]


@dataclass(frozen=True)
class MVPolynomial:
    """Polynomial of degree <= m-1 around a center, vector coefficients."""

    center: np.ndarray
    m: int
    coeffs: dict  # multi-index tuple -> (components,) array

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        n = self.center.size
        want = set(multi_indices_upto(n, self.m - 1))
        have = set(self.coeffs)
        if want != have:
            raise GridError("coefficients must cover every multi-index of order <= m-1")

    @property
    def n(self) -> int:
        return self.center.size

    @property
    def components(self) -> int:
        return next(iter(self.coeffs.values())).size

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at points of shape (..., n); returns (..., components)."""
        pts = np.asarray(points, dtype=float)
        rel = pts - self.center
        out = np.zeros(pts.shape[:-1] + (self.components,), dtype=float)
        for sig, coef in self.coeffs.items():
            out += mi_power(rel, sig)[..., None] * coef
        return out

    def differentiate(self, sigma) -> "MVPolynomial":
        """Exact derivative; annihilated multi-indices give the zero polynomial."""
        sigma = tuple(int(s) for s in sigma)
        new = {}
        for tau in multi_indices_upto(self.n, self.m - 1):
            new[tau] = np.zeros(self.components, dtype=float)
        for tau, coef in self.coeffs.items():
            if all(t >= s for t, s in zip(tau, sigma)):
                shifted = mi_sub(tau, sigma)
                factor = mi_factorial(tau) / mi_factorial(shifted)
                new[shifted] = new[shifted] + factor * coef
        return MVPolynomial(center=self.center, m=self.m, coeffs=new)

    def derivative_norm_at(self, points: np.ndarray, ell: int, rows: dict | None = None) -> np.ndarray:
        """Euclidean norm of the order-l derivative array at points, or with
        ``rows`` (multi-index -> values at the points) the deviation norm
        |D^l u - D^l P| of those derivative values from P's."""
        pts = np.asarray(points, dtype=float)
        sq = np.zeros(pts.shape[:-1], dtype=float)
        for sig in multi_indices(self.n, ell):
            vals = self.differentiate(sig).evaluate(pts)
            if rows is not None:
                vals = rows[sig] - vals
            sq += np.sum(vals**2, axis=-1)
        return np.sqrt(sq)

    def sample(self, grid: GridFunction) -> GridFunction:
        vals = self.evaluate(grid.cell_centers().reshape(-1, self.n))
        return grid.with_values(vals.reshape(grid.dims + (self.components,)))

    def recenter(self, new_center) -> "MVPolynomial":
        """Taylor shift of the coefficient map to a new center; exact."""
        new_center = np.asarray(new_center, dtype=float)
        shift = new_center - self.center
        new = {tau: np.zeros(self.components) for tau in multi_indices_upto(self.n, self.m - 1)}
        for tau, coef in self.coeffs.items():
            # (x - c)^tau = sum_{sig <= tau} binom(tau, sig) shift^(tau-sig) (x - c')^sig
            for sig in multi_indices_upto(self.n, sum(tau)):
                if all(s <= t for s, t in zip(sig, tau)):
                    binom = 1.0
                    for t, s in zip(tau, sig):
                        binom *= math.comb(t, s)
                    new[sig] = new[sig] + coef * binom * mi_power(shift[None, :], mi_sub(tau, sig))[0]
        return MVPolynomial(center=new_center, m=self.m, coeffs=new)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def fit_on_cells(
    points: np.ndarray,
    weights: np.ndarray,
    deriv_rows: dict,
    m: int,
    center: np.ndarray,
) -> MVPolynomial:
    """Weighted mean-value polynomial from the cells it is fitted on.

    ``points`` are the cell centers, ``weights`` the weight on each cell and
    ``deriv_rows`` maps every multi-index of order < m to the derivative's
    values on the cells, shape (cells, components).  The weight must be
    nonnegative.  The weighted averages of the derivatives and of the
    monomials around ``center`` feed the coefficient recursion.
    """
    if np.any(weights < 0):
        raise GridError("weight must be nonnegative on the fitted cells")
    wsum = weights.sum()
    if wsum <= 0:
        raise GridError("degenerate weight: ||eta||_L1(region) = 0")
    rel = points - center
    order = multi_indices_upto(center.size, m - 1)
    monomial_avgs = {mu: float((mi_power(rel, mu) * weights).sum() / wsum) for mu in order}
    coeffs: dict = {}
    for sigma in sorted(order, key=lambda s: (-sum(s), s)):
        acc = (deriv_rows[sigma] * weights[:, None]).sum(axis=0) / wsum
        for tau in order:
            if sum(tau) > sum(sigma) and all(t >= s for t, s in zip(tau, sigma)):
                shifted = mi_sub(tau, sigma)
                factor = mi_factorial(tau) / mi_factorial(shifted)
                acc -= factor * coeffs[tau] * monomial_avgs[shifted]
        coeffs[sigma] = acc / mi_factorial(sigma)
    return MVPolynomial(center=center, m=m, coeffs=coeffs)


def fit(
    u: GridFunction,
    region: Region,
    eta: GridFunction,
    m: int,
    center,
) -> MVPolynomial:
    """Weighted mean-value polynomial of u on the region."""
    if m < 1:
        raise GridError(f"polynomial order m must be >= 1, got {m}")
    if not u.same_lattice(eta):
        raise GridError("weight must live on the same lattice")
    mask = region.mask_for(u)
    if not mask.any():
        raise GridError("empty region")
    rows = {sig: df.values[mask] for k in range(m) for sig, df in derivative_array(u, k).items()}
    center = np.asarray(center, dtype=float)
    return fit_on_cells(u.cell_centers()[mask], eta.scalar()[mask], rows, m, center)


def moment_residual(P: MVPolynomial, u: GridFunction, region: Region, eta: GridFunction) -> float:
    """Worst relative defect of the defining moment conditions."""
    scale = 1.0 + float(np.abs(u.values).max())
    worst = 0.0
    for k in range(P.m):
        for sig, df in derivative_array(u, k).items():
            dP = P.differentiate(sig).sample(u)
            lhs = weighted_average(df, region, eta)
            rhs = weighted_average(dP, region, eta)
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    return worst


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------


def coefficient_bounds_report(
    P: MVPolynomial,
    u: GridFunction,
    region: Region,
    eta: GridFunction,
    radius: float,
    aux_region: Region | None = None,
) -> dict:
    """Derivative growth of P against the weighted derivative averages of u.

    Measures, for each order l < m, the sup over the ball (union the
    auxiliary ball) of |D^l P| divided by sum_{mu=l}^{m-1} R^{mu-l}
    |(D^mu u)_{B,eta}|.
    """
    mask = region.mask_for(u)
    if aux_region is not None:
        mask = mask | aux_region.mask_for(u)
    pts = u.cell_centers()[mask]
    avgs = {}
    for mu in range(P.m):
        total = 0.0
        for sig, df in derivative_array(u, mu).items():
            avg = weighted_average(df, region, eta)
            total += float(np.sum(avg**2))
        avgs[mu] = math.sqrt(total)
    ratios = {}
    for ell in range(P.m):
        sup_dp = float(P.derivative_norm_at(pts, ell).max())
        denom = sum(radius ** (mu - ell) * avgs[mu] for mu in range(ell, P.m))
        ratios[ell] = _ratio(sup_dp, denom)
    finite = all(math.isfinite(v) for v in ratios.values())
    return {"ratios": ratios, "pass": finite}


def integration_by_parts_report(
    P: MVPolynomial,
    u: GridFunction,
    region: Region,
    eta: GridFunction,
    radius: float,
    eta_bound_const: float = 2048.0,
) -> dict:
    """|D^l P| controlled by the plain average of |D^l u| for a smooth cutoff.

    Requires the cutoff to satisfy |D^l eta| <= C R^(-l) for every order up
    to m (measured by finite differences); the default admissible constant
    covers the package's exp-smoothstep cutoffs through order three.  The
    report then records sup_B |D^l P| / avg_B |D^l u| per order.
    """
    for ell in range(P.m + 1):
        sup_de = float(derivative_norm(eta, ell).scalar().max())
        if sup_de > eta_bound_const * radius ** (-ell):
            raise GridError(
                f"cutoff derivative bound fails at order {ell}: "
                f"{sup_de:.3e} > {eta_bound_const} * R^-{ell}"
            )
    mask = region.mask_for(u)
    pts = u.cell_centers()[mask]
    ratios = {}
    for ell in range(P.m):
        sup_dp = float(P.derivative_norm_at(pts, ell).max())
        avg_du = float(mean_over(derivative_norm(u, ell), region)[0])
        ratios[ell] = _ratio(sup_dp, avg_du)
    finite = all(math.isfinite(v) for v in ratios.values())
    return {"ratios": ratios, "pass": finite}


def kernel_bound_report(
    u: GridFunction,
    region: Region,
    eta: GridFunction,
    ell: int,
    radius: float,
    m: int | None = None,
) -> dict:
    """Telescoped difference sum against the iterated maximal function.

    sum_{k<=l} |D^k u - D^k P| / R^(l-k)  vs  M_B^(2l+1)(|D^l u|).
    """
    if m is None:
        m = ell + 1
    _require_premises(u, region, eta, 0.5)
    P = fit(u, region, eta, m, region.center if region.kind == "ball" else u.origin)
    mask = region.mask_for(u)
    pts = u.cell_centers()[mask]
    lhs = np.zeros(pts.shape[0], dtype=float)
    for k in range(ell + 1):
        rows = {sig: df.values[mask] for sig, df in derivative_array(u, k).items()}
        lhs += P.derivative_norm_at(pts, k, rows) / radius ** (ell - k)
    rhs = maximal_function(derivative_norm(u, ell), MaximalSpec(restriction=region, iterations=2 * ell + 1))
    sup = _ratio_sup(lhs, rhs.scalar()[mask])[0]
    return {"sup_ratio": sup, "pass": bool(math.isfinite(sup))}
