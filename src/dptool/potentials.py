"""Restricted Riesz potentials and the double-phase Sobolev--Poincare
inequalities they support.

The potential I_gamma f(x) = integral over the ball of |f(y)| / |x-y|^(n-gamma)
is evaluated by FFT convolution of the zero-extended samples with the kernel
through ``maximal._fft_same``, which transforms each distinct line of the
kernel once and holds one slab of the padded spectrum at a time besides the
unpadded rows; the (2d-1)^n kernel has half-width d - 1, so an axis of d
cells pads to the least 5-smooth length of at least 2d - 1.  The singular
self-cell is replaced by the exact integral of the kernel over one cell
(closed form in 1D, refined midpoint quadrature in 2D/3D), which removes
the O(h^gamma) bias of the naive sum.
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
    derivative_norm,
    integrate,
    measure,
)
from .exponents import riesz_gap, sobolev_exponent
from .maximal import _fft_same, _ratio_sup
from .weights import Weight

__all__ = [
    "PotentialSpec",
    "riesz_potential",
    "lp_norm",
    "strong_type_report",
    "weighted_split_check",
    "pointwise_riesz_bound_check",
    "sobolev_poincare_report",
]


@dataclass(frozen=True)
class PotentialSpec:
    gamma: float
    region: Region


def _self_cell_weight(n: int, h: float, gamma: float) -> float:
    """Exact/refined integral of |y|^(gamma-n) over one cell centered at 0."""
    if n == 1:
        # int_{-h/2}^{h/2} |y|^(gamma-1) dy = 2 (h/2)^gamma / gamma
        return 2.0 * (h / 2.0) ** gamma / gamma
    k = 8 if n == 2 else 4  # 64 sub-points either way
    sub = (np.arange(k) + 0.5) / k - 0.5
    axes = np.meshgrid(*([sub * h] * n), indexing="ij")
    r = np.sqrt(sum(a**2 for a in axes))
    return float(np.sum(r ** (gamma - n))) * (h / k) ** n


def riesz_potential(f: GridFunction, spec: PotentialSpec) -> GridFunction:
    """I_gamma f on the grid, source restricted to the ball."""
    gamma = spec.gamma
    if not (0 < gamma < f.n):
        raise GridError(f"gamma must lie in (0, {f.n}), got {gamma}")
    vals = np.where(spec.region.mask_for(f), derivative_norm(f, 0).scalar(), 0.0)
    h = f.spacing
    if f.cell_volume == 0.0:
        raise GridError(f"spacing {h} is too small for the Riesz kernel: the cell volume h^{f.n} underflows to 0")

    def kernel_spectrum(fshape):
        # one line per distinct squared length of the leading offsets, summed
        # in the order the dense (2d-1)^n kernel sums it: lines of equal
        # length are bit-equal, so that kernel is never built; the zero
        # length comes first, and its line holds the self cell
        *lead, last = np.ogrid[tuple(slice(1 - d, d) for d in f.dims)]
        lengths, index = np.unique(sum((o * h) ** 2 for o in lead), return_inverse=True)
        with np.errstate(divide="ignore"):
            lines = np.sqrt(lengths[:, None] + (last.reshape(-1) * h) ** 2) ** (gamma - f.n) * (h**f.n)
        lines[0, f.dims[-1] - 1] = _self_cell_weight(f.n, h, gamma)
        return np.fft.rfft(lines, fshape[-1]), index.reshape(tuple(2 * d - 1 for d in f.dims[:-1]))

    out = _fft_same(vals, tuple(2 * d - 1 for d in f.dims), kernel_spectrum)
    np.maximum(out, 0.0, out=out)
    return f.with_values(out[..., None])


def lp_norm(u: GridFunction, region: Region, p: float) -> float:
    """L^p norm over the region by midpoint quadrature, for a finite p > 0."""
    return float(integrate(u, region, power=p).sum()) ** (1.0 / p)


def strong_type_report(f: GridFunction, r: float, gamma: float, region: Region) -> float:
    """||I_gamma f||_{nr/(n-gamma r)} / ||f||_r on the ball (0.0 for f = 0)."""
    if not (1 < r < math.inf):
        raise GridError("strong type needs 1 < r < inf")
    if gamma >= f.n / r:
        raise GridError(f"strong type needs gamma < n/r = {f.n / r}")
    target = f.n * r / (f.n - gamma * r)
    pot = riesz_potential(f, PotentialSpec(gamma=gamma, region=region))
    return _ratio(lp_norm(pot, region, target), lp_norm(f, region, r))


def weighted_split_check(
    f: GridFunction,
    weight: Weight,
    p: float,
    q: float,
    region: Region,
    radius: float,
    seminorm: float,
) -> tuple[float, float]:
    """Pointwise split of the weighted potential into two unweighted ones.

    a(x)^{1/q} I_1(f) <= c I_1(a^{1/q} f) + c R^{1+alpha/q-beta} I_beta(f)
    with beta = n(1/p - 1/q) + 1 (``exponents.riesz_gap``).  Returns the
    measured sup of the left side over the bracket (``maximal._ratio_sup``)
    and the reference constant c = [a]_alpha^{1/q} max(1, 2^{1+alpha/q-beta}),
    with ``seminorm`` the weight's comparison constant [a]_alpha.
    """
    alpha = weight.alpha
    beta = riesz_gap(p, q, f.n, alpha)["beta"]
    a_vals = weight.a.scalar()
    i1 = riesz_potential(f, PotentialSpec(gamma=1.0, region=region)).scalar()
    lhs = a_vals ** (1.0 / q) * i1
    wf = f.with_values((a_vals ** (1.0 / q) * derivative_norm(f, 0).scalar())[..., None])
    t1 = riesz_potential(wf, PotentialSpec(gamma=1.0, region=region)).scalar()
    ibeta = riesz_potential(f, PotentialSpec(gamma=beta, region=region)).scalar()
    t2 = radius ** (1.0 + alpha / q - beta) * ibeta
    mask = region.mask_for(f)
    return _ratio_sup(lhs[mask], (t1 + t2)[mask]), seminorm ** (1.0 / q) * max(1.0, 2.0 ** (1.0 + alpha / q - beta))


def pointwise_riesz_bound_check(
    u: GridFunction,
    region: Region,
    eta: GridFunction,
) -> float:
    """sup |u| / I_1(|Du|) on the ball, finite when the bound holds
    (``maximal._ratio_sup``), under vanishing weighted mean of u (to 1e-8)
    and eta mass at least the half-radius ball volume."""
    _require_premises(u, region, eta, 2.0**-u.n, 1, 1e-8)
    du = derivative_norm(u, 1)
    pot = riesz_potential(du, PotentialSpec(gamma=1.0, region=region)).scalar()
    mask = region.mask_for(u)
    return _ratio_sup(derivative_norm(u, 0).scalar()[mask], pot[mask])


def sobolev_poincare_report(
    u: GridFunction,
    weight: Weight,
    p: float,
    q: float,
    region: Region,
    eta: GridFunction,
    ell: int,
    r_target: float,
    radius: float,
) -> tuple[float, float, float]:
    """Double-phase Sobolev--Poincare comparison on one ball.

    LHS = (avg of a^{r/q} |u/R^l|^r)^{1/r} against
    RHS1 = (avg of a |D^l u|^q)^{1/q} and
    RHS2 = R^{alpha/q} (avg of |D^l u|^p)^{1/p}.
    Admissible r: up to (q_l)^* (closed when l q < n, open otherwise).  Above
    (p_l)^* in the l q >= n branch, the implied intermediate exponent
    s = nr/(n + l r) lies in (p, q): s rises with r, equals p at (p_l)^*
    and stays below n/l <= q.  Requires the eta-weighted
    averages of all derivatives of order < l to vanish to 1e-6.  Returns
    the three sides (LHS, RHS1, RHS2); the comparison holds when
    LHS/(RHS1 + RHS2) is finite.
    """
    n = u.n
    alpha = weight.alpha
    q_star = sobolev_exponent(q, ell, n)
    if ell * q < n:
        if not (1.0 <= r_target <= q_star + 1e-12):
            raise GridError(f"r must lie in [1, {q_star}] for order {ell}")
    else:
        if math.isinf(r_target):
            raise GridError("r must be finite below the open endpoint")
        if r_target < 1.0:
            raise GridError("r must be >= 1")

    _require_premises(u, region, eta, None, ell, 1e-6)

    a_vals = weight.a.scalar()
    mask = region.mask_for(u)
    vol = measure(u, region)
    unorm = derivative_norm(u, 0).scalar()
    lhs_int = float(
        np.sum((a_vals[mask] ** (r_target / q)) * (unorm[mask] / radius**ell) ** r_target)
    ) * u.cell_volume
    lhs = (lhs_int / vol) ** (1.0 / r_target)

    dnorm = derivative_norm(u, ell).scalar()
    rhs1 = (float(np.sum(a_vals[mask] * dnorm[mask] ** q)) * u.cell_volume / vol) ** (1.0 / q)
    rhs2 = radius ** (alpha / q) * (
        float(np.sum(dnorm[mask] ** p)) * u.cell_volume / vol
    ) ** (1.0 / p)
    return lhs, rhs1, rhs2

