"""Discrete maximal operators: centered, uncentered, fractional and
restricted, iterated through ``MaximalSpec.iterations``, with the
verification reports for their structural estimates (composition,
pointwise potential-type bounds and the weighted two-term bound).

The discrete ball family has lattice centers and radii
{h/2} u {h, 2h, 3h, 4h, 6h, 8h, 12h, ...} up to the grid diameter (the
dyadic ladder and its midpoints); the uncentered supremum
at x runs over family balls whose closure contains x, with candidate
centers quantized to a stride of one eighth of the radius.  Averages
treat the input as extended by zero outside the lattice, which is the right
reading for restricted operators.  They go through ``_fft_same``, the
package's one FFT convolution (the Riesz potential uses it too): bitwise
equal to ``scipy.signal.fftconvolve(mode="same")``, it runs numpy's
pocketfft along contiguous axes and transforms only the rows that hold
data.

``maximal_stack`` applies the operator to several fields on one lattice,
one stacked pass per iteration level that computes each disc kernel's
spectrum once; ``maximal_function`` is a stack of one.  Everything is a
pure function of the inputs, each field's noise floor and covering mean
are its own, and the per-radius reductions are order-independent maxima,
so a field's result is bitwise what it is alone.

A field sits out a radius r that convolves when r^beta S (1 + eps) / |D_r|,
S its sum and eps ``_MASS_SLACK`` (for FFT rounding), is at most the least
value of its running max: no disc sum of |f| >= 0 exceeds S, so no candidate
at r could change a bit of it, and a NaN or infinite bound drops nothing.
The rest are convolved as a sub-stack, bitwise as in the whole stack since
pocketfft transforms each row on its own; a radius no field needs is skipped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridFunction, Region, _require_premises, derivative_norm
from .weights import Weight

__all__ = [
    "MaximalSpec",
    "maximal_function",
    "maximal_stack",
    "padded_shapes",
    "composition_bound",
    "composition_report",
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


@functools.cache
def _disc_rows(n: int, r_cells: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Lines of the stride-``stride`` lattice disc |d| <= r_cells along the
    last axis: the leading n-1 coordinates of each line (multiples of the
    stride) and its half-width in strides along the last axis."""
    ax = np.arange(-(r_cells // stride) * stride, r_cells + 1, stride)
    mesh = np.meshgrid(*([ax] * (n - 1)), indexing="ij")
    prefixes = np.stack([m.reshape(-1) for m in mesh], axis=-1) if n > 1 else np.zeros((1, 0), dtype=int)
    rem = r_cells * r_cells - np.sum(prefixes * prefixes, axis=1)
    prefixes, rem = prefixes[rem >= 0], rem[rem >= 0]
    # exact integer sqrt: the float root is within one of it
    root = np.sqrt(rem).astype(np.int64)
    root -= root * root > rem
    root += (root + 1) * (root + 1) <= rem
    return prefixes, root // stride


def _disc_count(n: int, r_cells: int) -> int:
    """Number of lattice points d with |d| <= r_cells."""
    _prefixes, halfwidths = _disc_rows(n, r_cells, 1)
    return int(np.sum(2 * halfwidths + 1))


def _covers(dims, r_cells: int) -> bool:
    """The disc of radius r_cells around any lattice point holds the whole lattice."""
    return r_cells * r_cells >= sum((d - 1) ** 2 for d in dims)


def padded_shapes(dims) -> dict[int, list[int]]:
    """The padded FFT shape of every radius that convolves, by radius in
    cells: all but the single cell and the discs that cover the lattice."""
    return {r: [_next_fast_len(d + 2 * r) for d in dims] for r in _radii_cells(dims) if r and not _covers(dims, r)}


@functools.cache
def _next_fast_len(n: int) -> int:
    """The least 5-smooth length (2^a 3^b 5^c) >= n, pocketfft's fast real
    transform length: ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _to_last(a: np.ndarray, axes: list, ax: int) -> tuple[np.ndarray, list]:
    """``a`` with grid axis ``ax`` moved last, copied to be contiguous when it
    was not last, and the grid axis order of the result; ``axes`` names the
    grid axis at each trailing position of ``a``."""
    i = axes.index(ax)
    if i == len(axes) - 1:
        return a, axes
    k = a.ndim - len(axes) + i
    return a.transpose(*range(k), *range(k + 1, a.ndim), k).copy(), axes[:i] + axes[i + 1:] + [ax]


def _spectrum(x: np.ndarray, fshape: list) -> np.ndarray:
    """rfftn of x over its last ``len(fshape)`` axes, zero-padded to
    ``fshape``, transforming only the rows of x: the last axis first, then
    the others in increasing order, which is pocketfft's own order of
    passes.  Each pass runs along a contiguous last axis, so the spectrum's
    trailing axes come out in the grid order n-1, 0, 1, ..., n-2."""
    return _leading_passes(np.fft.rfft(x, fshape[-1]), fshape)


def _leading_passes(sp: np.ndarray, fshape: list) -> np.ndarray:
    """``_spectrum``'s passes along the leading axes, given its last-axis pass."""
    axes = list(range(len(fshape)))
    for ax in range(len(fshape) - 1):
        sp, axes = _to_last(sp, axes, ax)
        sp = np.fft.fft(sp, fshape[ax])
    return sp


def _disc_spectrum(n: int, r_cells: int, fshape: list) -> np.ndarray:
    """``_spectrum`` of the indicator of the lattice disc |d| <= r_cells, bit
    for bit, without the dense (2 r_cells + 1)^n kernel: pocketfft transforms
    each row on its own, so the last-axis pass transforms one line per
    half-width, and the empty line, and gathers them to the disc's lines."""
    prefixes, halfwidths = _disc_rows(n, r_cells, 1)
    line = np.abs(np.arange(-r_cells, r_cells + 1))
    lines = np.fft.rfft((line <= np.arange(-1, r_cells + 1)[:, None]).astype(float), fshape[-1])
    index = np.zeros((2 * r_cells + 1,) * (n - 1), dtype=np.intp)
    index[(*(prefixes + r_cells).T, ...)] = halfwidths + 1  # the ... lets n = 1 fill its one line
    return _leading_passes(lines[index], fshape)


def _fft_same(x: np.ndarray, kshape: tuple, kernel_spectrum, held: dict | None = None, keep: bool = False) -> np.ndarray:
    """``scipy.signal.fftconvolve(x, kernel, mode="same")`` over the last
    ``len(kshape)`` axes of x, for each index of its leading axes, bit for
    bit, for the kernel of shape ``kshape`` whose ``_spectrum`` at a padded
    shape ``kernel_spectrum(fshape)`` returns.

    The same one-dimensional pocketfft passes at the same 5-smooth padded
    lengths, pruned (Markel, "FFT pruning", 1971): the forward passes skip
    the padding rows, whose transforms are zero, and each inverse pass keeps
    only the rows of the "same" window before the next one runs.  Every pass
    runs along a contiguous last axis, and the product and the inverse
    passes work in the spectrum's layout.  The 1/N factor is pocketfft's,
    rounded from long double.  Every grid axis of x and the kernel must be longer than
    one, as on every grid; fftconvolve leaves axes of length one
    untransformed.  ``held``, when given, carries the spectrum of x from one
    call on the same x to the next: a call takes the one held there when its
    padded shape matches and, with ``keep``, leaves its own there;
    otherwise the product is taken in place, in the spectrum of x.  Either
    way the kernel's spectrum is dropped before the inverse passes.
    """
    n = len(kshape)
    dims = x.shape[x.ndim - n:]
    fshape = [_next_fast_len(a + b - 1) for a, b in zip(dims, kshape)]
    shape, sp = (held or {}).pop("spectrum", (None, None))
    if shape != fshape:
        sp = _spectrum(x, fshape)
    # np.multiply, not *: numpy may multiply into a temporary right operand
    # in place, which swaps the operands, and a*b is not b*a bit for bit
    if keep:
        held["spectrum"] = fshape, sp
        sp = np.multiply(sp, kernel_spectrum(fshape))
    else:
        sp = np.multiply(sp, kernel_spectrum(fshape), out=sp)
    axes = [n - 1, *range(n - 1)]
    for ax in range(n):
        sp, axes = _to_last(sp, axes, ax)
        inverse = np.fft.irfft if ax == n - 1 else np.fft.ifft
        start = (kshape[ax] - 1) // 2
        sp = inverse(sp, fshape[ax], norm="forward")[..., start:start + dims[ax]]
    return sp * float(np.longdouble(1) / np.longdouble(math.prod(fshape)))


def _shift_index(d) -> tuple[tuple, tuple]:
    """Destination and source index of a shift by the offset d on a
    ``(K, *dims)`` stack: ``dst`` receives ``src`` moved by d, and cells
    moved in from past the edge are left out."""
    dst, src = [slice(None)], [slice(None)]
    for k in map(int, d):
        dst.append(slice(k, None) if k > 0 else slice(None, k) if k < 0 else slice(None))
        src.append(slice(None, -k) if k > 0 else slice(-k, None) if k < 0 else slice(None))
    return tuple(dst), tuple(src)


@functools.cache
def _dilation_plan(n: int, r_cells: int, stride: int) -> list:
    """The disc dilation of radius r_cells at that stride as shift indices
    on a stack: for each half-width k, the two shifts that grow the line max
    to k strides each way along the last axis, then one shift per disc line
    of half-width k (its leading coordinates)."""
    prefixes, halfwidths = _disc_rows(n, r_cells, stride)
    lead = (0,) * (n - 1)
    return [
        ([_shift_index(lead + (sign * k * stride,)) for sign in (1, -1)] if k else [],
         [_shift_index(tuple(p) + (0,)) for p in prefixes[halfwidths == k]])
        for k in range(int(halfwidths.max()) + 1)
    ]


def maximal_function(f: GridFunction, spec: MaximalSpec) -> GridFunction:
    """Pointwise supremum of r^beta times ball averages of |f|.

    Scalar input, or the Euclidean norm is taken first.  The restricted
    variant multiplies by the region indicator before averaging.  With
    ``spec.iterations = l`` the operator is applied l times, restricting
    before each application: M_B^l f = M(chi_B M(chi_B ... M(chi_B |f|))).
    A stack of one for ``maximal_stack``.
    """
    return maximal_stack([f], [spec])[0]


def maximal_stack(fields: list[GridFunction], specs: list[MaximalSpec]) -> list[GridFunction]:
    """``maximal_function(f, spec)`` for each field and its spec, stacked.

    The fields share one lattice and the specs one mode; beta, restriction
    and iterations are each spec's own.  Level t is one stacked pass over
    the fields whose spec has at least t iterations, each restricted to its
    own region first, so every field's result is bitwise what it would be
    alone.
    """
    if not fields:
        raise GridError("maximal_stack needs at least one field")
    if len(fields) != len(specs):
        raise GridError(f"maximal_stack got {len(fields)} fields but {len(specs)} specs")
    f0 = fields[0]
    if not all(f0.same_lattice(f) for f in fields):
        raise GridError("maximal_stack fields must share one lattice")
    mode = specs[0].mode
    if any(s.mode != mode for s in specs):
        raise GridError("maximal_stack specs must share one mode")
    for s in specs:
        if s.beta >= f0.n:
            raise GridError(f"fractional order {s.beta} must be < dimension {f0.n}")
    stack = np.empty((len(fields),) + f0.dims)
    for row, f in zip(stack, fields):
        row[...] = np.sqrt(np.sum(f.values**2, axis=-1)) if f.components > 1 else np.abs(f.scalar())
    outside = [None if s.restriction is None else ~s.restriction.mask_for(f) for f, s in zip(fields, specs)]
    for t in range(max(s.iterations for s in specs)):
        live = [i for i, s in enumerate(specs) if s.iterations > t]
        level = stack if len(live) == len(stack) else stack[live]
        for row, i in zip(level, live):
            if outside[i] is not None:
                row[outside[i]] = 0.0
        stack[live] = _maximal_once(level, f0.n, f0.spacing, [specs[i].beta for i in live], mode)
    return [f.with_values(row[..., None]) for f, row in zip(fields, stack)]


# For x >= 0 of sum S and a disc of |D| cells, each FFT disc sum is within
# (3 rho + u) sqrt(|D|) S of the exact one, rho ~ 6 u log2(N) being a length-N
# FFT's relative l2 error (Higham, "Accuracy and Stability of Numerical
# Algorithms", thm 24.2), ||x||_2 <= S and ||x * k||_2 <= S sqrt(|D|): under
# 1e-10 S for |D| <= 10^6 and N <= 2^30.
_MASS_SLACK = 1e-6


def _maximal_once(stack: np.ndarray, n: int, h: float, betas, mode: str) -> np.ndarray:
    """One application of the maximal operator to each field of a
    ``(K, *dims)`` stack of |f| samples, field k at fractional order
    ``betas[k]``.

    Per radius one ``_fft_same`` call convolves the rows the mass bound
    keeps, computing the disc kernel's spectrum once from its distinct
    lines, and keeps their input spectrum only while the next radius shares
    the padded shape and rows; otherwise it multiplies into it in place.
    The uncentered candidate at x for radius r is the max of the averages
    at the stride-r//8 lattice disc offsets around x.  Since a max does not
    depend on evaluation order, the disc is taken line by line: a running
    max along the last axis grows one stride each way per step, and at each
    half-width every disc line of that half-width is one shift of it.  Where
    the disc covers the lattice the averages are constant and the dilation
    is the identity.
    """
    K, dims = len(stack), stack.shape[1:]
    radii = _radii_cells(dims)
    fshapes = padded_shapes(dims)
    # kill fft noise so that e.g. constant inputs stay exactly constant;
    # each field against its own peak
    flat = stack.reshape(K, -1)
    floor = (flat.max(axis=1) * 1e-13).reshape((-1,) + (1,) * n)
    sums = flat.sum(axis=1)
    result = np.zeros_like(stack)
    bufs = np.empty_like(stack), np.empty_like(stack), np.empty_like(stack)
    held: dict = {}
    for i, r_cells in enumerate(radii):
        radius = 0.5 * h if r_cells == 0 else r_cells * h
        count = _disc_count(n, r_cells)
        rows = np.arange(K)
        if r_cells in fshapes:
            bound = sums * (1.0 + _MASS_SLACK) * [radius**beta for beta in betas] / count
            rows = rows[~((bound <= result.reshape(K, -1).min(axis=1)) & np.isfinite(bound))]
            held = held if np.array_equal(held.get("rows"), rows) else {"rows": rows}
            if not len(rows):
                continue
        pick = slice(None) if len(rows) == K else rows
        cand, line, acc = (buf[:len(rows)] for buf in bufs)
        if r_cells == 0:
            np.copyto(cand, stack)
        elif r_cells in fshapes:
            keep = i + 1 < len(radii) and fshapes.get(radii[i + 1]) == fshapes[r_cells]
            disc = functools.partial(_disc_spectrum, n, r_cells)
            np.divide(_fft_same(stack[pick], (2 * r_cells + 1,) * n, disc, held, keep), count, out=cand)
            np.maximum(cand, 0.0, out=cand)
            cand[cand < floor[pick]] = 0.0
        else:
            cand[...] = (sums / count).reshape(floor.shape)
        for j, k in enumerate(rows):
            if betas[k]:
                cand[j] *= radius**betas[k]
        if mode == "uncentered" and r_cells in fshapes:
            # line = max of cand[..., i + j*stride] over |j| <= k; cells past
            # the edge read 0, which never wins since cand >= 0
            np.copyto(line, cand)
            acc.fill(0.0)
            for grow, shifts in _dilation_plan(n, r_cells, max(1, r_cells // 8)):
                for dst, src in grow:
                    view = line[dst]
                    np.maximum(view, cand[src], out=view)
                for dst, src in shifts:
                    view = acc[dst]
                    np.maximum(view, line[src], out=view)
            cand = acc
        view = result[pick]  # a copy when rows were dropped, assigned back
        result[pick] = np.maximum(view, cand, out=view)
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


def _ratio_sup(num: np.ndarray, den: np.ndarray) -> float:
    """sup of num/den over the points with den > 0 (0.0 when there are none),
    or inf when more than 1e-3 of the points have den <= 0 and num does not
    vanish: a pointwise bound that leaves out that many points is not
    measured."""
    pos = den > 0
    if (np.size(den) - pos.sum()) / max(den.size, 1) > 1e-3 and num.max() != 0.0:
        return math.inf
    return float((num[pos] / den[pos]).max()) if pos.any() else 0.0


def composition_report(fields: list[GridFunction], beta: float) -> float:
    """Measured sup of M(M_beta f) / M_beta f over the fields, which share
    one lattice, to hold against ``composition_bound(n, beta)``."""
    if not (0 < beta < fields[0].n):
        raise GridError("composition report needs beta in (0, n)")
    mbf = maximal_stack(fields, [MaximalSpec(beta=beta)] * len(fields))
    mmbf = maximal_stack(mbf, [MaximalSpec(beta=0.0)] * len(fields))
    return max(_ratio_sup(mm.scalar(), mb.scalar()) for mm, mb in zip(mmbf, mbf))


def hedberg_report(
    u: GridFunction,
    ell: int,
    region: Region,
    eta: GridFunction,
    radius: float,
) -> float:
    """sup_B |u| / (R^l M_B^{2l}(|D^l u|)): pointwise potential-type bound,
    finite when it holds (``_ratio_sup``).

    Requires the eta-weighted averages of all derivatives of order < l to
    vanish to 1e-8 (subtract the weighted mean-value polynomial first) and
    eta mass at least the half-radius ball volume.
    """
    _require_premises(u, region, eta, 2.0**-u.n, ell, 1e-8)

    m2l = maximal_function(derivative_norm(u, ell), MaximalSpec(restriction=region, iterations=2 * ell))
    mask = region.mask_for(u)
    num = np.sqrt(np.sum(u.values**2, axis=-1))[mask]
    den = (radius**ell) * m2l.scalar()[mask]
    return _ratio_sup(num, den)


def weighted_hedberg_report(
    f: GridFunction,
    weight: Weight,
    q: float,
    beta: float,
    ell: int,
    region: Region,
    radius: float,
) -> float:
    """Two-term bound for the weighted maximal product.

    Measures the least c with a(x)^{1/q} M_B^l(f) <=
    c [ M_B^l(a^{1/q} f) + M_beta(M^{l-1}(f chi_B)) ] on the ball, finite
    when the bound holds (``_ratio_sup``); the
    estimate is stated for radii at most one, and for the fractional order
    in (0, min(alpha/q, n/t)].
    """
    if radius > 1.0:
        raise GridError("weighted bound assumes ball radius <= 1")
    if not (0 < beta < f.n):
        raise GridError("fractional order must lie in (0, n)")
    a_q = weight.a.scalar() ** (1.0 / q)
    spec = MaximalSpec(restriction=region, iterations=ell)
    mf, t1 = (out.scalar() for out in maximal_stack([f, f.with_values((a_q * np.abs(f.scalar()))[..., None])],
                                                    [spec, spec]))
    lhs = a_q * mf
    mask = region.mask_for(f)
    chi = f.with_values(np.where(mask, np.abs(f.scalar()), 0.0)[..., None])
    inner = maximal_function(chi, MaximalSpec(iterations=ell - 1)) if ell > 1 else chi
    t2 = maximal_function(inner, MaximalSpec(beta=beta)).scalar()
    return _ratio_sup(lhs[mask], (t1 + t2)[mask])
