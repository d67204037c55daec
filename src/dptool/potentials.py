"""Restricted Riesz potentials and the double-phase Sobolev--Poincare
inequalities they support.

The potential I_gamma f(x) = integral over the ball of |f(y)| / |x-y|^(n-gamma)
is evaluated by FFT convolution of the zero-extended samples with the kernel
through ``maximal._fft_same`` (bitwise equal to
``scipy.signal.fftconvolve(mode="same")``); the singular self-cell is
replaced by the exact integral of the kernel over one cell (closed form in
1D, refined midpoint quadrature in 2D/3D), which removes the O(h^gamma)
bias of the naive sum.
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
from .maximal import _fft_same, _ratio_sup, _spectrum
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

    def __post_init__(self):
        if self.region.kind != "ball":
            raise GridError("potential restriction must be a ball")


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
    vals = np.sqrt(np.sum(f.values**2, axis=-1)) if f.components > 1 else np.abs(f.scalar())
    vals = np.where(spec.region.mask_for(f), vals, 0.0)
    h = f.spacing
    if f.cell_volume == 0.0:
        raise GridError(f"spacing {h} is too small for the Riesz kernel: the cell volume h^{f.n} underflows to 0")

    def kernel_spectrum(fshape):
        # the dense (2d-1)^n kernel lives only until its spectrum is taken
        offs = np.ogrid[tuple(slice(1 - d, d) for d in f.dims)]
        with np.errstate(divide="ignore"):
            kernel = np.sqrt(sum((o * h) ** 2 for o in offs)) ** (gamma - f.n) * (h**f.n)
        kernel[tuple(d - 1 for d in f.dims)] = _self_cell_weight(f.n, h, gamma)
        return _spectrum(kernel, fshape)

    out = _fft_same(vals, tuple(2 * d - 1 for d in f.dims), kernel_spectrum)
    np.maximum(out, 0.0, out=out)
    return f.with_values(out[..., None])


def lp_norm(u: GridFunction, region: Region | None, p: float) -> float:
    """L^p norm by midpoint quadrature; p = inf gives the max over the region."""
    if math.isinf(p):
        mask = np.ones(u.dims, dtype=bool) if region is None else region.mask_for(u)
        return float(np.abs(u.values[mask]).max())
    return float(integrate(u, region, power=p).sum()) ** (1.0 / p)


def strong_type_report(f: GridFunction, r: float, gamma: float, region: Region) -> dict:
    """||I_gamma f||_{nr/(n-gamma r)} / ||f||_r on the ball."""
    if not (1 < r < math.inf):
        raise GridError("strong type needs 1 < r < inf")
    if gamma >= f.n / r:
        raise GridError(f"strong type needs gamma < n/r = {f.n / r}")
    target = f.n * r / (f.n - gamma * r)
    pot = riesz_potential(f, PotentialSpec(gamma=gamma, region=region))
    denom = lp_norm(f, region, r)
    if denom == 0.0:
        return {"ratio": 0.0, "target_exponent": target, "pass": True}
    ratio = lp_norm(pot, region, target) / denom
    return {"ratio": ratio, "target_exponent": target, "pass": bool(math.isfinite(ratio))}


def weighted_split_check(
    f: GridFunction,
    weight: Weight,
    p: float,
    q: float,
    region: Region,
    radius: float,
) -> dict:
    """Pointwise split of the weighted potential into two unweighted ones.

    a(x)^{1/q} I_1(f) <= c I_1(a^{1/q} f) + c R^{1+alpha/q-beta} I_beta(f)
    with beta = n(1/p - 1/q) + 1; the reference constant is
    [a]_alpha^{1/q} * max(1, 2^{1+alpha/q-beta}).
    """
    alpha = weight.alpha
    beta = riesz_gap(p, q, f.n, alpha)["beta"]
    a_vals = weight.a.scalar()
    i1 = riesz_potential(f, PotentialSpec(gamma=1.0, region=region)).scalar()
    lhs = a_vals ** (1.0 / q) * i1
    wf = f.with_values((a_vals ** (1.0 / q) * np.abs(f.scalar()))[..., None])
    t1 = riesz_potential(wf, PotentialSpec(gamma=1.0, region=region)).scalar()
    ibeta = riesz_potential(f, PotentialSpec(gamma=beta, region=region)).scalar()
    t2 = radius ** (1.0 + alpha / q - beta) * ibeta
    mask = region.mask_for(f)
    sup = _ratio_sup(lhs[mask], (t1 + t2)[mask])[0]
    ref = weight.seminorm_estimate ** (1.0 / q) * max(1.0, 2.0 ** (1.0 + alpha / q - beta))
    return {"sup_ratio": sup, "reference_constant": ref, "beta": beta, "pass": bool(sup <= ref * (1 + 1e-9))}


def pointwise_riesz_bound_check(
    u: GridFunction,
    region: Region,
    eta: GridFunction,
) -> dict:
    """sup |u| / I_1(|Du|) under vanishing weighted mean of u (to 1e-8) and
    eta mass at least the half-radius ball volume."""
    _require_premises(u, region, eta, 2.0**-u.n, 1, 1e-8)
    du = derivative_norm(u, 1)
    pot = riesz_potential(du, PotentialSpec(gamma=1.0, region=region)).scalar()
    mask = region.mask_for(u)
    sup = _ratio_sup(np.sqrt(np.sum(u.values**2, axis=-1))[mask], pot[mask])[0]
    return {"sup_ratio": sup, "pass": bool(math.isfinite(sup))}


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
) -> dict:
    """Double-phase Sobolev--Poincare comparison on one ball.

    LHS = (avg of a^{r/q} |u/R^l|^r)^{1/r} against
    RHS1 = (avg of a |D^l u|^q)^{1/q} and
    RHS2 = R^{alpha/q} (avg of |D^l u|^p)^{1/p}.
    Admissible r: up to (q_l)^* (closed when l q < n, open otherwise); above
    (p_l)^* in the l q >= n branch the implied intermediate exponent
    s = nr/(n + l r) is solved for and reported.  Requires the eta-weighted
    averages of all derivatives of order < l to vanish to 1e-6.
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
    aux_s = None
    p_star = sobolev_exponent(p, ell, n)
    if ell * q >= n and r_target > p_star:
        aux_s = n * r_target / (n + ell * r_target)
        if not (p < aux_s < q):
            raise GridError(f"implied intermediate exponent {aux_s} escapes ({p}, {q})")

    _require_premises(u, region, eta, None, ell, 1e-6)

    a_vals = weight.a.scalar()
    mask = region.mask_for(u)
    vol = measure(u, region)
    unorm = np.sqrt(np.sum(u.values**2, axis=-1))
    lhs_int = float(
        np.sum((a_vals[mask] ** (r_target / q)) * (unorm[mask] / radius**ell) ** r_target)
    ) * u.cell_volume
    lhs = (lhs_int / vol) ** (1.0 / r_target)

    dnorm = derivative_norm(u, ell).scalar()
    rhs1 = (float(np.sum(a_vals[mask] * dnorm[mask] ** q)) * u.cell_volume / vol) ** (1.0 / q)
    rhs2 = radius ** (alpha / q) * (
        float(np.sum(dnorm[mask] ** p)) * u.cell_volume / vol
    ) ** (1.0 / p)
    rhs = rhs1 + rhs2
    ratio = _ratio(lhs, rhs)
    out = {
        "lhs": lhs,
        "rhs_weighted": rhs1,
        "rhs_scaling": rhs2,
        "ratio": ratio,
        "pass": bool(math.isfinite(ratio)),
    }
    if aux_s is not None:
        out["intermediate_exponent"] = aux_s
    return out

