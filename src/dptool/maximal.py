"""Discrete maximal operators: centered, uncentered, fractional and
restricted, iterated through ``MaximalSpec.iterations``, with the
verification reports for their structural estimates (composition,
continuity modulus, pointwise potential-type bounds and the weighted
two-term bound).

The discrete ball family has lattice centers and radii
{h/2} u {h, 2h, 3h, 4h, 6h, 8h, 12h, ...} up to the grid diameter (the
dyadic ladder and its midpoints); the uncentered supremum
at x runs over family balls whose closure contains x, with candidate
centers quantized to a stride of one eighth of the radius.  Averages
treat the input as extended by zero outside the lattice, which is the right
reading for restricted operators.  They go through ``_fft_same``, the
package's one FFT convolution (the Riesz potential uses it too): bitwise
equal to ``scipy.signal.fftconvolve(mode="same")``, it transforms only the
rows that hold data.  Everything is a pure function of the
inputs, and the per-radius reductions are order-independent maxima, so
results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

from .grid import GridError, GridFunction, Region, _lower_order_residual, derivative_norm, integrate, measure
from .weights import Weight

__all__ = [
    "MaximalSpec",
    "maximal_function",
    "composition_bound",
    "composition_report",
    "continuity_modulus_report",
    "hedberg_report",
    "weighted_hedberg_report",
]


@dataclass(frozen=True)
class MaximalSpec:
    """Parameters of one maximal operator application."""

    beta: float = 0.0
    mode: str = "uncentered"
    restriction: Region | None = None
    iterations: int = 1

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise GridError(f"fractional order must be finite and >= 0, got {self.beta}")
        if self.mode not in ("centered", "uncentered"):
            raise GridError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise GridError("iterations must be >= 1")


# ---------------------------------------------------------------------------
# ball family and averages
# ---------------------------------------------------------------------------


def _radii_cells(dims) -> list[int]:
    """0 stands for the single-cell ball of radius h/2; then the dyadic
    ladder with midpoints (1, 2, 3, 4, 6, 8, 12, ...) up to the diameter."""
    diam = int(math.ceil(math.hypot(*dims)))
    radii = {0, 1, 2}
    k = 2
    while k < 2 * diam:
        radii.add(3 * k // 2)
        radii.add(2 * k)
        k *= 2
    return sorted(r for r in radii if r == 0 or r // 2 <= diam)


_DISC_CACHE: dict = {}


def _disc_rows(n: int, r_cells: int, stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Lines of the stride-``stride`` lattice disc |d| <= r_cells along the
    last axis: the leading n-1 coordinates of each line (multiples of the
    stride) and its half-width in strides along the last axis."""
    key = ("rows", n, r_cells, stride)
    if key not in _DISC_CACHE:
        ax = np.arange(-(r_cells // stride) * stride, r_cells + 1, stride)
        mesh = np.meshgrid(*([ax] * (n - 1)), indexing="ij")
        prefixes = np.stack([m.reshape(-1) for m in mesh], axis=-1) if n > 1 else np.zeros((1, 0), dtype=int)
        rem = r_cells * r_cells - np.sum(prefixes * prefixes, axis=1)
        prefixes, rem = prefixes[rem >= 0], rem[rem >= 0]
        # exact integer sqrt: the float root is within one of it
        root = np.sqrt(rem).astype(np.int64)
        root -= root * root > rem
        root += (root + 1) * (root + 1) <= rem
        _DISC_CACHE[key] = (prefixes, root // stride)
    return _DISC_CACHE[key]


def _disc_count(n: int, r_cells: int) -> int:
    """Number of lattice points d with |d| <= r_cells."""
    _prefixes, halfwidths = _disc_rows(n, r_cells)
    return int(np.sum(2 * halfwidths + 1))


def _disc_kernel(n: int, r_cells: int) -> np.ndarray:
    """Indicator of the lattice disc |d| <= r_cells."""
    key = ("kernel", n, r_cells)
    if key not in _DISC_CACHE:
        ax = np.arange(-r_cells, r_cells + 1)
        mesh = np.meshgrid(*([ax] * n), indexing="ij")
        _DISC_CACHE[key] = (sum(m * m for m in mesh) <= r_cells * r_cells).astype(float)
    return _DISC_CACHE[key]


def _covers(dims, r_cells: int) -> bool:
    """The disc of radius r_cells around any lattice point holds the whole lattice."""
    return r_cells * r_cells >= sum((d - 1) ** 2 for d in dims)


def _spectrum(x: np.ndarray, fshape: list) -> np.ndarray:
    """rfftn of x zero-padded to ``fshape``, transforming only the rows of x:
    the last axis first, then the others in increasing order, which is
    pocketfft's own order of passes."""
    sp = rfft(x, fshape[-1], axis=-1)
    for ax in range(x.ndim - 1):
        sp = fft(sp, fshape[ax], axis=ax)
    return sp


def _fft_same(x: np.ndarray, kernel: np.ndarray, held: dict | None = None) -> np.ndarray:
    """``scipy.signal.fftconvolve(x, kernel, mode="same")``, bit for bit.

    The same one-dimensional pocketfft passes at the same next_fast_len
    padded lengths, pruned (Markel, "FFT pruning", 1971): the forward passes
    skip the padding rows, whose transforms are zero, and each inverse pass
    keeps only the rows of the "same" window before the next one runs.  The
    1/N factor is pocketfft's, rounded from long double.  Every axis of x
    and the kernel must be longer than one, as on every grid; fftconvolve
    leaves axes of length one untransformed.  ``held``, when given, keeps
    the spectrum of x for the next call on the same x with the same padded
    shape.
    """
    fshape = [next_fast_len(a + b - 1, True) for a, b in zip(x.shape, kernel.shape)]
    if held is not None and held.get("fshape") == fshape:
        sp1 = held["spectrum"]
    else:
        sp1 = _spectrum(x, fshape)
        if held is not None:
            held.update(fshape=fshape, spectrum=sp1)
    # bound to a name: numpy may multiply into a temporary operand in place,
    # and its in-place complex product rounds differently
    sp2 = _spectrum(kernel, fshape)
    out = sp1 * sp2
    for ax in range(x.ndim):
        inverse = irfft if ax == x.ndim - 1 else ifft
        start = (kernel.shape[ax] - 1) // 2
        out = inverse(out, fshape[ax], axis=ax, norm="forward")
        out = out[(slice(None),) * ax + (slice(start, start + x.shape[ax]),)]
    return out * float(np.longdouble(1) / np.longdouble(math.prod(fshape)))


def _ball_average(absvals: np.ndarray, n: int, r_cells: int, held: dict | None = None) -> np.ndarray:
    """Average of |f| (zero-extended) over the lattice disc, all centers;
    ``held`` is passed on to ``_fft_same``."""
    if r_cells == 0:
        return absvals
    count = _disc_count(n, r_cells)
    if _covers(absvals.shape, r_cells):
        return np.full_like(absvals, absvals.sum() / count)
    out = _fft_same(absvals, _disc_kernel(n, r_cells), held) / count
    np.maximum(out, 0.0, out=out)
    # kill fft noise so that e.g. constant inputs stay exactly constant
    peak = absvals.max()
    out[out < peak * 1e-13] = 0.0
    return out


def _shift_max(acc: np.ndarray, arr: np.ndarray, d: np.ndarray) -> None:
    """acc = max(acc, arr shifted by d), in place, zero-extended candidates skipped."""
    n = arr.ndim
    src = [slice(None)] * n
    dst = [slice(None)] * n
    for ax in range(n):
        k = int(d[ax])
        if k > 0:
            dst[ax] = slice(k, None)
            src[ax] = slice(None, -k)
        elif k < 0:
            dst[ax] = slice(None, k)
            src[ax] = slice(-k, None)
    view = acc[tuple(dst)]
    np.maximum(view, arr[tuple(src)], out=view)


def maximal_function(f: GridFunction, spec: MaximalSpec) -> GridFunction:
    """Pointwise supremum of r^beta times ball averages of |f|.

    Scalar input, or the Euclidean norm is taken first.  The restricted
    variant multiplies by the region indicator before averaging.  With
    ``spec.iterations = l`` the operator is applied l times, restricting
    before each application: M_B^l f = M(chi_B M(chi_B ... M(chi_B |f|))).
    """
    if spec.beta >= f.n:
        raise GridError(f"fractional order {spec.beta} must be < dimension {f.n}")
    out = np.sqrt(np.sum(f.values**2, axis=-1)) if f.components > 1 else np.abs(f.scalar())
    mask = None if spec.restriction is None else spec.restriction.mask_for(f)
    for _ in range(spec.iterations):
        if mask is not None:
            out = np.where(mask, out, 0.0)
        out = _maximal_once(out, f.n, f.spacing, spec.beta, spec.mode)
    return f.with_values(out[..., None])


def _maximal_once(vals: np.ndarray, n: int, h: float, beta: float, mode: str) -> np.ndarray:
    """One application of the maximal operator to |f| samples.

    The uncentered candidate at x for radius r is the max of the averages
    at the stride-r//8 lattice disc offsets around x.  Since a max does not
    depend on evaluation order, the disc is taken line by line: a running
    max along the last axis grows one stride each way per step, and at each
    half-width every disc line of that half-width is one shift of it.  Where
    the disc covers the lattice the averages are constant and the dilation
    is the identity.  Consecutive radii with the same padded FFT shape share
    the spectrum of the input.
    """
    dims = vals.shape
    result = np.zeros_like(vals)
    held: dict = {}
    for r_cells in _radii_cells(dims):
        radius = 0.5 * h if r_cells == 0 else r_cells * h
        avg = _ball_average(vals, n, r_cells, held)
        scale = radius**beta if beta else 1.0
        cand = scale * avg
        if mode == "centered" or r_cells == 0 or _covers(dims, r_cells):
            np.maximum(result, cand, out=result)
            continue
        stride = max(1, r_cells // 8)
        prefixes, halfwidths = _disc_rows(n, r_cells, stride)
        line = cand.copy()
        acc = np.zeros_like(vals)
        step = np.zeros(n, dtype=int)
        for k in range(int(halfwidths.max()) + 1):
            if k:
                # line = max of cand[..., i + j*stride] over |j| <= k; cells past
                # the edge read 0, which never wins since cand >= 0
                for sign in (1, -1):
                    step[-1] = sign * k * stride
                    _shift_max(line, cand, step)
            for prefix in prefixes[halfwidths == k]:
                _shift_max(acc, line, np.append(prefix, 0))
        np.maximum(result, acc, out=result)
    return result


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def composition_bound(n: int, beta: float) -> float:
    """Reference constant for M(M_beta f) <= c M_beta f.

    Chain: the centered composition estimate splits into a far part bounded
    by 2^(n-beta) M_beta^c and a dyadic near part bounded by
    4^n/(2^beta - 1) M_beta^c; converting both outer and inner operators to
    their uncentered versions costs the sandwich factors 2^n and 2^(n-beta).
    """
    if not (0 < beta < n):
        raise GridError("composition bound needs beta in (0, n)")
    return 2.0 ** (2 * n - beta) * (2.0 ** (n - beta) + 4.0**n / (2.0**beta - 1.0))


def _ratio_sup(num: np.ndarray, den: np.ndarray, max_excluded_frac: float = 1e-3):
    """sup of num/den over the points with den > 0 (0.0 when there are none),
    the number of excluded points, and whether few enough were excluded
    (at most ``max_excluded_frac`` of them, or num vanishes)."""
    pos = den > 0
    excluded = int(np.size(den) - pos.sum())
    frac = excluded / max(den.size, 1)
    sup = float((num[pos] / den[pos]).max()) if pos.any() else 0.0
    return sup, excluded, frac <= max_excluded_frac or num.max() == 0.0


def composition_report(f: GridFunction, beta: float) -> dict:
    """Measured sup of M(M_beta f) / M_beta f against the reference constant."""
    if not (0 < beta < f.n):
        raise GridError("composition report needs beta in (0, n)")
    mbf = maximal_function(f, MaximalSpec(beta=beta))
    mmbf = maximal_function(mbf, MaximalSpec(beta=0.0))
    sup, excluded, ok = _ratio_sup(mmbf.scalar(), mbf.scalar())
    bound = composition_bound(f.n, beta)
    return {
        "sup_ratio": sup,
        "bound": bound,
        "excluded_points": excluded,
        "pass": bool(ok and sup <= bound),
    }


def continuity_modulus_report(f: GridFunction, beta: float, shifts: tuple = (1, 2, 4, 8)) -> dict:
    """Empirical modulus of continuity of M_beta f over lattice shifts."""
    mbf = maximal_function(f, MaximalSpec(beta=beta)).scalar()
    table = {}
    for k in shifts:
        worst = 0.0
        for axis in range(f.n):
            if f.dims[axis] <= k:
                continue
            sl_a = [slice(None)] * f.n
            sl_b = [slice(None)] * f.n
            sl_a[axis] = slice(k, None)
            sl_b[axis] = slice(None, -k)
            worst = max(worst, float(np.abs(mbf[tuple(sl_a)] - mbf[tuple(sl_b)]).max()))
        table[k * f.spacing] = worst
    hs = sorted(table)
    monotone = all(table[hs[i]] <= table[hs[i + 1]] + 1e-14 for i in range(len(hs) - 1))
    return {"modulus": table, "monotone": monotone}


def hedberg_report(
    u: GridFunction,
    ell: int,
    region: Region,
    eta: GridFunction,
    radius: float,
    mean_tol: float = 1e-8,
) -> dict:
    """sup_B |u| / (R^l M_B^{2l}(|D^l u|)): pointwise potential-type bound.

    Requires the eta-weighted averages of all derivatives of order < l to
    vanish (subtract the weighted mean-value polynomial first) and eta mass
    at least the half-radius ball volume.
    """
    eta_mass = float(integrate(eta, region)[0])
    if eta_mass < measure(u, region) / 2**u.n - 1e-12:
        raise GridError("weight mass below the half-radius ball volume")
    resid = _lower_order_residual(u, region, eta, ell) / (1.0 + float(np.abs(u.values).max()))
    if resid > mean_tol:
        raise GridError(f"weighted averages below order {ell} do not vanish: residual {resid:.3e}")

    m2l = maximal_function(derivative_norm(u, ell), MaximalSpec(restriction=region, iterations=2 * ell))
    mask = region.mask_for(u)
    num = np.sqrt(np.sum(u.values**2, axis=-1))[mask]
    den = (radius**ell) * m2l.scalar()[mask]
    sup, excluded, ok = _ratio_sup(num, den)
    return {"sup_ratio": sup, "excluded_points": excluded, "pass": bool(ok and math.isfinite(sup))}


def weighted_hedberg_report(
    f: GridFunction,
    weight: Weight,
    q: float,
    beta: float,
    ell: int,
    region: Region,
    radius: float,
) -> dict:
    """Two-term bound for the weighted maximal product.

    Checks a(x)^{1/q} M_B^l(f) against
    c [ M_B^l(a^{1/q} f) + M_beta(M^{l-1}(f chi_B)) ] on the ball; the
    estimate is stated for radii at most one, and for the fractional order
    in (0, min(alpha/q, n/t)].
    """
    if radius > 1.0:
        raise GridError("weighted bound assumes ball radius <= 1")
    if not (0 < beta < f.n):
        raise GridError("fractional order must lie in (0, n)")
    a_q = weight.a.scalar() ** (1.0 / q)
    spec = MaximalSpec(restriction=region, iterations=ell)
    lhs = a_q * maximal_function(f, spec).scalar()
    t1 = maximal_function(f.with_values((a_q * np.abs(f.scalar()))[..., None]), spec).scalar()
    mask = region.mask_for(f)
    chi = f.with_values(np.where(mask, np.abs(f.scalar()), 0.0)[..., None])
    inner = maximal_function(chi, MaximalSpec(iterations=ell - 1)) if ell > 1 else chi
    t2 = maximal_function(inner, MaximalSpec(beta=beta)).scalar()
    sup, excluded, ok = _ratio_sup(lhs[mask], (t1 + t2)[mask])
    return {"sup_ratio": sup, "excluded_points": excluded, "pass": bool(ok and math.isfinite(sup))}
