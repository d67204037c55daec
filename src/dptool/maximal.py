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
package's one FFT convolution (the Riesz potential uses it too).  It pads
each axis of d cells only to d + c, c the kernel's half-width clipped to
d - 1, not to the full linear length d + 2c: the circular convolution at
that length aliases nothing into the "same" window, which so equals the
linear result up to rounding.  It runs numpy's pocketfft along contiguous
axes, transforms only the rows that hold data and the kernel's distinct
lines, and holds the padded spectrum one slab of last-axis frequencies at
a time.

``maximal_stack`` applies the operator to several fields on one lattice,
one stacked pass per iteration level that transforms each disc kernel's
lines once; ``maximal_function`` is a stack of one.  Everything is a
pure function of the inputs, each field's covering mean is its own, and
the per-radius reductions are order-independent maxima, so a field's
result is bitwise what it is alone.

A field sits out a radius r that convolves when r^beta S (1 + eps) / |D_r|,
S its sum and eps ``_MASS_SLACK`` (for FFT rounding), is at most the least
value of its running max: no disc sum of |f| >= 0 exceeds S, so no candidate
at r could change a bit of it, and a NaN or infinite bound drops nothing.
The rest are convolved as a sub-stack, bitwise as in the whole stack since
pocketfft transforms each row on its own; a radius no field needs is skipped.

The uncentered dilation (``_dilation_plan``, laid out by ``_lattice_plan``)
holds its candidates and stacks as ``(K, *dims[:-1], d + g)``: each
last-axis row is followed by g guard cells, g the largest last-axis shift
of the radius's plan shorter than the row, and the candidates' guards are
+0.0.  A last-axis shift-max is then one op over the flat buffer instead of
one per row, and a read past a row's end meets a guard, max(x, +0.0), which
is x bit for bit since no candidate is -0.0.  In 3-D, g = 0: the middle-axis
shifts dominate there and guards only cost.
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


def _disc_shape(dims, r_cells: int) -> tuple:
    """The shape of the disc |d| <= r_cells as a kernel on this lattice:
    clipped to offsets under d_i cells on axis i, since an offset of d_i or
    more joins no two cells of the lattice."""
    return tuple(2 * min(r_cells, d - 1) + 1 for d in dims)


def _fft_lengths(dims, kshape) -> list[int]:
    """``_fft_same``'s padded length on each axis: the least 5-smooth length
    of at least d_i + c_i, c_i = (k_i - 1) / 2 the kernel's half-width."""
    return [_next_fast_len(d + (k - 1) // 2) for d, k in zip(dims, kshape)]


def padded_shapes(dims) -> dict[int, list[int]]:
    """The padded FFT shape of every radius that convolves, by radius in
    cells: all but the single cell and the discs that cover the lattice."""
    return {r: _fft_lengths(dims, _disc_shape(dims, r)) for r in _radii_cells(dims) if r and not _covers(dims, r)}


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


def _leading_passes(sp: np.ndarray, fshape: list) -> np.ndarray:
    """rfftn's passes along the leading grid axes, zero-padded to
    ``fshape``, given its last-axis pass ``sp``: in increasing order, which
    is pocketfft's own.  Each pass runs along a contiguous last axis, so the
    trailing axes come out in the grid order n-1, 0, 1, ..., n-2."""
    axes = list(range(len(fshape)))
    for ax in range(len(fshape) - 1):
        sp, axes = _to_last(sp, axes, ax)
        sp = np.fft.fft(sp, fshape[ax])
    return sp


# Disc kernel spectra by (r_cells, kshape, fshape) whose lines take at most
# _KEPT_SPECTRUM_BYTES: the levels of a ``maximal_stack`` and every pass on
# one lattice share them.  That keeps every kernel of ``verify --suite all``
# (48, 0.54 MB).  Larger ones, the widest discs of lattices from about 256^2
# up, are transformed per call, where they cost little beside the pass:
# keeping every kernel held 28 MB at 1024^2, and a 1 MiB bound 2.5 MB, which
# still raised a 1024^2 pass's peak RSS by 8 MB; at 256 KiB it did not move.
_DISC_SPECTRA: dict = {}
_KEPT_SPECTRUM_BYTES = 2**18


def _disc_spectrum(r_cells: int, kshape: tuple, fshape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The lattice disc |d| <= r_cells, clipped to ``kshape`` (odd, centred;
    ``_disc_shape``), as ``_fft_same``'s kernel: the last-axis rfft of its
    distinct lines, one per clipped half-width that some line has and the
    empty line when a line of the clipped box misses the disc, and the index
    of each line's transform, so the dense kernel is never built.  Both are
    read-only, and kept in ``_DISC_SPECTRA`` when the lines fit its bound."""
    kept = _DISC_SPECTRA.get((r_cells, kshape, fshape))
    if kept is not None:
        return kept
    reach = [(k - 1) // 2 for k in kshape]
    prefixes, halfwidths = _disc_rows(len(kshape), r_cells, 1)
    inside = np.all(np.abs(prefixes) <= reach[:-1], axis=1)
    prefixes, halfwidths = prefixes[inside], np.minimum(halfwidths[inside], reach[-1])
    slot = halfwidths + 1  # by half-width + 1, the empty line first
    used = np.zeros(reach[-1] + 2, dtype=bool)
    used[slot] = True
    used[0] = len(slot) < math.prod(kshape[:-1])
    index = np.zeros(kshape[:-1], dtype=np.intp)
    index[(*(prefixes + reach[:-1]).T, ...)] = (np.cumsum(used) - 1)[slot]  # the ... lets n = 1 fill its one line
    line = np.abs(np.arange(-reach[-1], reach[-1] + 1))
    lines = np.fft.rfft((line < np.flatnonzero(used)[:, None]).astype(float), fshape[-1])
    lines.flags.writeable = index.flags.writeable = False
    if lines.nbytes <= _KEPT_SPECTRUM_BYTES:
        _DISC_SPECTRA[r_cells, kshape, fshape] = lines, index
    return lines, index


def _slab(box: list, lo: int, hi: int) -> np.ndarray:
    """Columns lo to hi of the array in the one-element list ``box``; the
    last columns empty the box, so that the array is freed with the view."""
    return (box[0] if hi < box[0].shape[-1] else box.pop())[..., lo:hi]


# The bytes of one slab of a padded field spectrum: ``_fft_same`` works on
# the last-axis frequencies a slab at a time, so that a large convolution
# holds one slab, not its whole padded spectrum, and the slab stays in cache.
_SLAB_BYTES = 2**20


def _slab_width(stacked: int, fshape: list) -> int:
    """Last-axis frequencies per slab of the spectra of ``stacked``
    fields padded to ``fshape``: the fewest slabs of at most ``_SLAB_BYTES``
    (but one frequency at least), as even as the frequencies allow.  A 1-D
    spectrum is one slab: no pass runs slab by slab there, and a product of
    one element can round differently from the same element in a longer one."""
    half = fshape[-1] // 2 + 1
    if len(fshape) == 1:
        return half
    return -(-half // -(-16 * stacked * math.prod(fshape[:-1]) * half // _SLAB_BYTES))


def _fft_same(x: np.ndarray, kshape: tuple, kernel_spectrum, held: dict | None = None, keep: bool = False) -> np.ndarray:
    """The "same" window of x's convolution with a centred kernel of odd
    shape ``kshape`` over the last ``len(kshape)`` axes of x, for each index
    of its leading axes: ``irfftn(rfftn(x, s) * rfftn(kernel, s), s)`` at the
    padded shape s (``_fft_lengths``) on the window that starts at each
    half-width c_i = (k_i - 1) / 2, bit for bit, for the kernel whose
    distinct last-axis lines ``kernel_spectrum(s)`` returns, rfft'd to s's
    last length, with the index of each kernel line's transform.

    Each axis is padded to the least 5-smooth length L >= d_i + c_i, not to
    the full linear length d_i + 2 c_i: the convolution is then circular,
    and a window index i in [c, c + d) aliases only to i + L >= d + 2c, past
    the linear support [0, d + 2c - 1], and to i - L < 0 (Oppenheim and
    Schafer, "Discrete-Time Signal Processing", sec. 8.7).  So the window is
    the linear "same" result up to rounding.  The caller clips each c_i to
    at most d_i - 1, so the kernel fits in L: a kernel offset of d_i or more
    never meets a cell of the window.

    The one-dimensional pocketfft passes, pruned (Markel, "FFT pruning",
    1971): the forward passes skip the padding rows, whose transforms are
    zero, and each inverse pass keeps only the rows of the window before
    the next one runs.  Every pass runs along a contiguous last axis.  After
    the last-axis rfft of x's rows and the kernel's lines, the leading
    forward passes, the product and the leading inverse passes run one slab
    of last-axis frequencies at a time (``_slab_width``), each 1-D transform
    seeing the input it sees on the whole spectrum, and write into the
    layout the final irfft reads.  So a call holds the rows of x, the
    kernel's lines, the irfft's input and about two slabs, not the whole
    padded spectrum, and a spectrum of one slab no more than the
    whole-spectrum path held.  The 1/N factor is pocketfft's, rounded from
    long double.  Every grid axis of x and the kernel must be longer than
    one, as on every grid.  ``held``, when given, carries the padded
    spectrum of x from one call on the same x to the next: a call takes the
    one held there when its padded shape matches and, with ``keep``, leaves
    its own there, whole; otherwise each product is taken in place, in a
    slab of x's spectrum.
    """
    n = len(kshape)
    stack, dims = x.shape[:x.ndim - n], x.shape[x.ndim - n:]
    fshape = _fft_lengths(dims, kshape)
    half = fshape[-1] // 2 + 1
    width = _slab_width(math.prod(stack), fshape)
    shape, spectrum = (held or {}).pop("spectrum", (None, None))
    rows = None
    if shape != fshape:
        rows = [np.fft.rfft(x, fshape[-1])]  # a box for _slab
        spectrum = np.empty(stack + (half, *fshape[:-1]), complex) if keep and width < half else None
    lines, index = kernel_spectrum(tuple(fshape))
    lines = [lines]  # a box for _slab
    for lo in range(0, half, width):
        hi = min(lo + width, half)
        slab = (..., slice(lo, hi)) + (slice(None),) * (n - 1)
        if rows is None:
            sp = spectrum[slab]
        else:
            sp = _leading_passes(_slab(rows, lo, hi), fshape)
            if spectrum is not None:
                spectrum[slab] = sp
            elif keep:
                spectrum = sp
        # np.multiply, not *: numpy may multiply into a temporary right
        # operand in place, which swaps the operands, and a*b is not b*a bit
        # for bit; with keep, the slab may be the held spectrum's own
        sp = np.multiply(sp, _leading_passes(_slab(lines, lo, hi)[index], fshape), out=None if keep else sp)
        if hi == half:
            if keep:
                held["spectrum"] = fshape, spectrum
            spectrum = None
        axes = [n - 1, *range(n - 1)]
        for ax in range(n - 1):
            sp, axes = _to_last(sp, axes, ax)
            start = (kshape[ax] - 1) // 2
            sp = np.fft.ifft(sp, fshape[ax], norm="forward")[..., start:start + dims[ax]]
        if lo == 0:
            out = np.empty(stack + dims[:-1] + (half,), complex)
        k = len(stack)  # the slab's frequency axis, moved last for the irfft
        out[..., lo:hi] = sp.transpose(*range(k), *range(k + 1, sp.ndim), k)
        del sp  # before the next slab's passes
    start = (kshape[-1] - 1) // 2
    out = np.fft.irfft(out, fshape[-1], norm="forward")[..., start:start + dims[-1]]
    return out * float(np.longdouble(1) / np.longdouble(math.prod(fshape)))


def _shift_index(d) -> tuple[tuple, tuple]:
    """Destination and source index of a shift by the offset d over the last
    ``len(d)`` axes of an array: ``dst`` receives ``src`` moved by d, and
    cells moved in from past the edge are left out."""
    dst, src = [...], [...]
    for k in map(int, d):
        dst.append(slice(k, None) if k > 0 else slice(None, k) if k < 0 else slice(None))
        src.append(slice(None, -k) if k > 0 else slice(-k, None) if k < 0 else slice(None))
    return tuple(dst), tuple(src)


@functools.cache
def _dilation_plan(n: int, r_cells: int, stride: int) -> tuple[int, tuple, list]:
    """The disc dilation of radius r_cells at that stride as ops on ``count``
    stacks: stack 0 holds the candidates and stack 1, zeroed, receives the
    dilation.  Returns (count, the stacks to zero first, ops); an op
    (dst, src, None) copies src into dst, and (dst, src, d) sets dst to
    max(dst, src moved by the offset d) (``_shift_index``).

    The disc's offsets split as (p0, p', q): the first axis, the middle
    axes and the last.  line_k, the max of the candidates over |q| <= k
    strides, grows from line_(k-1) by two shifts along the last axis, each
    reading the candidates, stack 0; it is built when first read, in
    line_(k-1)'s stack once no later step reads that.  The walk takes |p0|
    from the rim inwards, and the disc's slice there holds one row (p', k)
    per middle offset, k its half-width.  Inwards a row's half-width only
    grows, so a slice stack T grows in place: a row is applied once, from
    line_k shifted by p', when its half-width first grows, and T's shifts by
    +-p0 then go into the dilation.  A slice whose one row is p' = 0 is that
    row's line: every slice outside it is such a slice too, so T is still
    empty.  In 1-D and 2-D, which have no middle axes, every slice is.
    """
    prefixes, halfwidths = _disc_rows(n, r_cells, stride)
    rim = np.abs(prefixes[:, :1]).sum(axis=1)  # |p0|; 0 for the one slice of 1-D
    applied, walk = {}, []
    for a in sorted(set(rim.tolist()), reverse=True):
        here = rim == a
        rows = dict(zip(map(tuple, prefixes[here, 1:].tolist()), halfwidths[here].tolist()))
        new = [(p, k) for p, k in rows.items() if k > applied.get(p, -1)]
        alias = list(rows) == [(0,) * (n - 2)]
        if not alias:
            applied.update(new)
        walk.append((new, alias, sorted({tuple(p[:1]) for p in prefixes[here].tolist()})))
    last = {k: i for i, (new, _alias, _outer) in enumerate(walk) for _p, k in new}
    line, count, slice_stack, ops = [0], 2, None, []
    for i, (new, alias, outer) in enumerate(walk):
        for k in range(len(line), max((width for _p, width in new), default=0) + 1):
            if line[k - 1] and last.get(k - 1, -1) < i:
                line.append(line[k - 1])
            else:
                line.append(count)
                ops.append((count, line[k - 1], None))
                count += 1
            ops += [(line[k], 0, (0,) * (n - 1) + (sign * k * stride,)) for sign in (1, -1)]
        if alias:
            src = line[new[0][1]]
        else:
            if slice_stack is None:
                slice_stack, count = count, count + 1
            src = slice_stack
            ops += [(src, line[k], (0, *p, 0)) for p, k in new]
        ops += [(1, src, p0 + (0,) * (n - len(p0))) for p0 in outer]
    return count, (1,) if slice_stack is None else (1, slice_stack), ops


@functools.cache
def _lattice_plan(dims: tuple, r_cells: int) -> tuple[int, tuple, int, list]:
    """``_dilation_plan`` at stride r_cells // 8 on a lattice of these dims,
    its stacks laid out as ``(K, *dims[:-1], d + g)`` (``_guarded``): each
    last-axis row of d cells is followed by g guard cells, which hold +0.0
    in the candidates' stack.  Returns (count, the stacks to zero first, g,
    ops); an op (dst, src, flat, index) copies src into dst when index is
    None, and otherwise sets dst[di] to max(dst[di], src[si]), (di, si) =
    index, on the stacks read flat (one run of K d_0 ... d_(n-2) (d + g)
    cells) when ``flat`` is set and as ``(K, *dims[:-1], d + g)`` arrays
    when not.

    A shift by d_i cells or more along an axis moves every cell past the
    edge, so it is left out.  g is the largest remaining last-axis shift,
    at most min(r_cells, d - 1), and each last-axis shift by k <= g is one
    op over the flat run.  Such an op reads the candidates, stack 0
    (``_dilation_plan``), which no op writes, so a cell whose source the
    row's end would clip reads a guard instead and becomes max(x, +0.0).
    That is x bit for bit under either rule numpy may keep on a tie of
    signed zeros: keeping the first operand, it is x itself; keeping the
    second, ``_maximal_once``'s clip ``maximum(cand, 0.0)`` has mapped
    every -0.0 candidate to +0.0, every stack holds only maxima of
    candidates and the +0.0 it was zeroed to, so x = +0.0 on a tie.  A NaN
    stays NaN.  Other shifts run on the arrays, guards included, and each of
    their cells reads a cell of its own column, so no real column reads a
    guard.  Guards as wide as the widest shift, nearly a row at the largest
    radii, cost up to 1.9 times the stacks' memory; giving up the guards of
    the radii whose widest shift passes d/4 made the dilation of a 128^2
    pass about 15% slower.  In 3-D, g = 0 and every op runs on the arrays,
    so the buffers are the size of the stack: the middle-axis shifts
    dominate there, and guards bought nothing (best of 15 on a 2-core
    machine, a 32^3 pass went 27 -> 30 ms and 48^3 102 -> 97 ms).
    """
    n = len(dims)
    count, zeroed, ops = _dilation_plan(n, r_cells, max(1, r_cells // 8))
    ops = [(dst, src, off) for dst, src, off in ops if off is None or all(abs(k) < d for k, d in zip(off, dims))]
    g = 0 if n > 2 else max((abs(off[-1]) for _dst, _src, off in ops if off is not None), default=0)
    laid = []
    for dst, src, off in ops:
        flat = off is None or g > 0 and not any(off[:-1])
        laid.append((dst, src, flat, None if off is None else _shift_index(off[-1:] if flat else off)))
    return count, zeroed, g, laid


def _guarded(buf: np.ndarray, rows: int, dims: tuple, g: int) -> np.ndarray:
    """The head of the flat buffer ``buf`` as a ``(rows, *dims[:-1], d + g)``
    stack: rows fields, each last-axis row followed by g guard cells."""
    shape = (rows, *dims[:-1], dims[-1] + g)
    return buf[:math.prod(shape)].reshape(shape)


def _dilate(bufs: list, rows: int, dims: tuple, r_cells: int) -> np.ndarray:
    """The uncentered dilation of radius r_cells of the candidates the first
    of the flat buffers ``bufs`` holds, as ``_guarded(bufs[0], rows, dims, g)``
    with g ``_lattice_plan``'s: their real columns only, as the guards are
    zeroed here.  ``bufs`` grows to the plan's stack count, each buffer the
    size of the first; returns the dilation's real columns, a view of
    ``bufs[1]``.  Cells shifted in from past the edge are left out: they
    would read 0, which never wins since the candidates are >= 0."""
    count, zeroed, g, ops = _lattice_plan(dims, r_cells)
    bufs += [np.empty_like(bufs[0]) for _ in range(count - len(bufs))]
    views = [_guarded(buf, rows, dims, g) for buf in bufs]
    flats = [view.reshape(-1) for view in views]
    views[0][..., dims[-1]:] = 0.0
    for z in zeroed:
        flats[z].fill(0.0)
    for dst, src, flat, index in ops:
        arrays = flats if flat else views
        if index is None:
            np.copyto(arrays[dst], arrays[src])
        else:
            view = arrays[dst][index[0]]
            np.maximum(view, arrays[src][index[1]], out=view)
    return views[1][..., :dims[-1]]


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
        row[...] = derivative_norm(f, 0).scalar()
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
# (3 rho + u) sqrt(|D|) S of the exact one, rho ~ 6 u log2(N) being the
# relative l2 error of an FFT of N padded cells (Higham, "Accuracy and
# Stability of Numerical Algorithms", thm 24.2), ||x||_2 <= S and
# ||x * k||_2 <= S sqrt(|D|): under 1e-10 S for |D| <= 10^6 and N <= 2^30.
_MASS_SLACK = 1e-6


def _maximal_once(stack: np.ndarray, n: int, h: float, betas, mode: str) -> np.ndarray:
    """One application of the maximal operator to each field of a
    ``(K, *dims)`` stack of |f| samples, field k at fractional order
    ``betas[k]``.

    Per radius one ``_fft_same`` call convolves the rows the mass bound
    keeps with the disc clipped to the lattice (``_disc_shape``),
    transforming its distinct lines once, and keeps their padded input
    spectrum whole only while the next radius shares the padded shape and
    rows; otherwise each slab's product is taken in place.  The uncentered
    candidate at x for radius r is the max of the averages at the
    stride-r//8 lattice disc offsets around x.  Since a max does not depend
    on evaluation order, the disc is taken as ``_dilation_plan`` lays it
    out: running maxima along the last axis, slices grown in place, and
    their shifts along the first axis.  Where the disc covers the lattice
    the averages are constant and the dilation is the identity.

    The candidates and the plan's stacks live in flat buffers sized for the
    widest guard g of any radius, each radius laying its own out at the
    head (``_guarded``) with g guard cells after each last-axis row, so
    that a last-axis shift is one contiguous op rather than one per row.
    The candidates' guards are +0.0 and no candidate is -0.0 after the
    clip, so a shift that reads a guard changes no bit; in 3-D g = 0 and
    the buffers are the size of the stack (``_lattice_plan`` gives both
    arguments).  The running max reads the real columns.
    """
    K, dims = len(stack), stack.shape[1:]
    radii = _radii_cells(dims)
    fshapes = padded_shapes(dims)
    guards = {r: _lattice_plan(dims, r)[2] for r in fshapes} if mode == "uncentered" else {}
    sums = stack.reshape(K, -1).sum(axis=1)
    result = np.zeros_like(stack)
    size = K * math.prod(dims[:-1]) * (dims[-1] + max(guards.values(), default=0))
    bufs = [np.empty(size), np.empty(size)]  # the candidates, the dilation, then the plan's
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
        cand = _guarded(bufs[0], len(rows), dims, guards.get(r_cells, 0))[..., :dims[-1]]
        if r_cells == 0:
            np.copyto(cand, stack)
        elif r_cells in fshapes:
            keep = i + 1 < len(radii) and fshapes.get(radii[i + 1]) == fshapes[r_cells]
            kshape = _disc_shape(dims, r_cells)
            disc = functools.partial(_disc_spectrum, r_cells, kshape)
            np.divide(_fft_same(stack[pick], kshape, disc, held, keep), count, out=cand)
            np.maximum(cand, 0.0, out=cand)
        else:
            cand[...] = (sums / count).reshape((-1,) + (1,) * n)
        for j, k in enumerate(rows):
            if betas[k]:
                cand[j] *= radius**betas[k]
        if r_cells in guards:
            cand = _dilate(bufs, len(rows), dims, r_cells)
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
    num = derivative_norm(u, 0).scalar()[mask]
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
    abs_f = derivative_norm(f, 0).scalar()
    spec = MaximalSpec(restriction=region, iterations=ell)
    mf, t1 = (out.scalar() for out in maximal_stack([f, f.with_values((a_q * abs_f)[..., None])], [spec, spec]))
    lhs = a_q * mf
    mask = region.mask_for(f)
    chi = f.with_values(np.where(mask, abs_f, 0.0)[..., None])
    inner = maximal_function(chi, MaximalSpec(iterations=ell - 1)) if ell > 1 else chi
    t2 = maximal_function(inner, MaximalSpec(beta=beta)).scalar()
    return _ratio_sup(lhs[mask], (t1 + t2)[mask])
