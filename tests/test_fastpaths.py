"""Exact fast paths against their definitions, compared bit for bit.

The oracles here are the definitions the fast paths replace:
the circular "same" convolution ``irfftn(rfftn(x, s) * rfftn(k, s), s)``
of scipy.fft, k the kernel clipped to the lattice and s the 5-smooth
lengths of at least d + c (c the clipped half-width), windowed at c, which
the pruned FFT convolution replaces in the ball averages and the Riesz
potential, also slab by slab at one and three frequencies a slab (the
tests named after ``fftconvolve`` hold this definition; one test holds it
to ``scipy.signal.fftconvolve(mode="same")`` within the FFT error bound),
the whole padded spectrum
(``spectrum``) that the slabs replace, the dense disc kernel whose spectrum
the disc's distinct lines give, the out-of-place spectrum product that
the in-place one replaces, the maximal
operator's per-offset dilation (one shift per stride-r//8 disc offset),
which the two-level dilation plan replaces, and
its per-half-width ``maximum_filter1d`` line maxima, the per-field maximal
pass (its own kernel spectra and buffers) that the stacked pass replaces,
the gauge's per-chain maximal calls, the
per-step loop of one restricted per-field pass per iteration that
``MaximalSpec.iterations`` replaces (each of these maximal oracles
convolves every radius, so each test also asserts that the mass bound
dropped rows), the
dense O(N^2) pair sweep of the infimal convolution, the full-grid
per-ball geometry (distances from every cell center) that the ball window
replaces in the ball masks, the Whitney cover and its checks, the energy
and reverse-Hoelder scans, the Gehring scan and the admissibility report,
the per-ball window loops of those three scans and the per-candidate
ball-pair family that ``grid._ball_rows`` and the array family replace
(and the one-ball window test ``ball_cells``, ball by ball, for
``_ball_rows``),
the per-ball Whitney loops (the per-candidate greedy cover, neighbour sets,
W1, W3, W4 and W5) that the pair lists replace, the k-d tree pair queries
and ``scipy.ndimage``'s distance transform that the bucket pairs and the
integer distance transform replace, ``scipy.fft.next_fast_len``, the k-d
tree normalizer of the partition that the neighbour-set sum replaces, the
two-pass truncation (fit every ball, then blend) that one loop replaces,
the scalar node-by-node sum of the layer-cake check, the scans' majorant
written out on its own that the shared gauge majorant replaces, the gauge
that also stacked F's whole-box chains and the smallness radius's chains,
the delta0 walk with its own feasibility list that ``check_derived``
replaces, and the per-multi-index deviation loop that
``MVPolynomial.derivative_norm_at`` with ``rows`` replaces in the scans
and the oscillation and kernel reports.
"""

import dataclasses
import functools
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.fft
from scipy.fft import next_fast_len
from scipy.ndimage import distance_transform_edt, maximum_filter1d
from scipy.signal import fftconvolve
from scipy.spatial import cKDTree

from dptool import exponents as ex
from dptool import gehring as ge
from dptool import grid as g
from dptool import harness as hn
from dptool import maximal as mx
from dptool import meanpoly as mp
from dptool import potentials as pt
from dptool import suites
from dptool import truncation as tr
from dptool import weights as wt
from dptool import whitney as wh
from dptool.corpus import fourier_sampler


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def disc_kernel(n, r_cells):
    """Indicator of the lattice disc |d| <= r_cells, dense."""
    ax = np.arange(-r_cells, r_cells + 1)
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    return (sum(m * m for m in mesh) <= r_cells * r_cells).astype(float)


def clipped(kernel, dims):
    """The centred window of an odd kernel with each half-width clipped to
    d_i - 1: offsets of d_i or more join no two cells of the lattice."""
    reach = [min((k - 1) // 2, d - 1) for k, d in zip(kernel.shape, dims)]
    return kernel[tuple(slice((k - 1) // 2 - c, (k + 1) // 2 + c) for k, c in zip(kernel.shape, reach))]


def circular_same(x, kernel):
    """The "same" window of the circular convolution of x with the kernel
    clipped to x's lattice, at the least 5-smooth lengths s_i >= d_i + c_i,
    c_i the clipped half-width: scipy.fft's rfftn and irfftn, windowed at c."""
    kernel = clipped(kernel, x.shape)
    reach = [(k - 1) // 2 for k in kernel.shape]
    s = [scipy.fft.next_fast_len(d + c, True) for d, c in zip(x.shape, reach)]
    out = scipy.fft.irfftn(scipy.fft.rfftn(x, s) * scipy.fft.rfftn(kernel, s), s)
    return out[tuple(slice(c, c + d) for c, d in zip(reach, x.shape))]


def disc_spectrum(dims, r_cells):
    """``_fft_same``'s kernel arguments for the disc on this lattice: the
    clipped shape and its distinct-line spectrum."""
    kshape = mx._disc_shape(dims, r_cells)
    return kshape, functools.partial(mx._disc_spectrum, r_cells, kshape)


def spectrum(x, fshape):
    """rfftn of x over its last ``len(fshape)`` axes, zero-padded to
    ``fshape``, whole: the last-axis pass, then the leading passes in
    ``_fft_same``'s order and layout."""
    return mx._leading_passes(np.fft.rfft(x, fshape[-1]), fshape)


def whole_spectrum(kernel_spectrum, fshape):
    """The whole padded spectrum of a kernel from the distinct lines and
    index that ``kernel_spectrum`` returns for the padded shape as a tuple,
    as ``_fft_same`` passes it."""
    lines, index = kernel_spectrum(tuple(fshape))
    return mx._leading_passes(lines[index], fshape)


def dense_spectrum(kernel):
    """The ``kernel_spectrum`` argument of ``_fft_same`` for a dense kernel,
    every line its own."""
    lines = kernel.reshape(-1, kernel.shape[-1])
    return lambda fshape: (np.fft.rfft(lines, fshape[-1]), np.arange(len(lines)).reshape(kernel.shape[:-1]))


def disc_offsets(n, r_cells, stride):
    if r_cells == 0:
        return np.zeros((1, n), dtype=int)
    ax = np.arange(-(r_cells // stride) * stride, r_cells + 1, stride)
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return pts[np.sum(pts * pts, axis=1) <= r_cells * r_cells]


def circular_ball_average(vals, n, r_cells):
    if r_cells == 0:
        return vals
    count = mx._disc_count(n, r_cells)
    if mx._covers(vals.shape, r_cells):
        return np.full_like(vals, vals.sum() / count)
    out = circular_same(vals, disc_kernel(n, r_cells)) / count
    np.maximum(out, 0.0, out=out)
    out[out < vals.max() * 1e-13] = 0.0
    return out


def shift_max(acc, arr, d):
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


def per_field_ball_average(absvals, n, r_cells, held):
    if r_cells == 0:
        return absvals
    count = mx._disc_count(n, r_cells)
    if mx._covers(absvals.shape, r_cells):
        return np.full_like(absvals, absvals.sum() / count)
    kernel = clipped(disc_kernel(n, r_cells), absvals.shape)
    out = mx._fft_same(absvals, kernel.shape, dense_spectrum(kernel), held, keep=True) / count
    np.maximum(out, 0.0, out=out)
    peak = absvals.max()
    out[out < peak * 1e-13] = 0.0
    return out


def per_field_maximal_once(vals, n, h, beta, mode):
    """One field's maximal pass: its own kernel spectra, line maxima and buffers."""
    dims = vals.shape
    result = np.zeros_like(vals)
    held = {}
    for r_cells in mx._radii_cells(dims):
        radius = 0.5 * h if r_cells == 0 else r_cells * h
        avg = per_field_ball_average(vals, n, r_cells, held)
        scale = radius**beta if beta else 1.0
        cand = scale * avg
        if mode == "centered" or r_cells == 0 or mx._covers(dims, r_cells):
            np.maximum(result, cand, out=result)
            continue
        stride = max(1, r_cells // 8)
        prefixes, halfwidths = mx._disc_rows(n, r_cells, stride)
        line = cand.copy()
        acc = np.zeros_like(vals)
        step = np.zeros(n, dtype=int)
        for k in range(int(halfwidths.max()) + 1):
            if k:
                for sign in (1, -1):
                    step[-1] = sign * k * stride
                    shift_max(line, cand, step)
            for prefix in prefixes[halfwidths == k]:
                shift_max(acc, line, np.append(prefix, 0))
        np.maximum(result, acc, out=result)
    return result


def per_field_maximal(f, spec):
    """``maximal_function`` through the per-field pass, one level at a time."""
    out = np.sqrt(np.sum(f.values**2, axis=-1)) if f.components > 1 else np.abs(f.scalar())
    mask = None if spec.restriction is None else spec.restriction.mask_for(f)
    for _ in range(spec.iterations):
        if mask is not None:
            out = np.where(mask, out, 0.0)
        out = per_field_maximal_once(out, f.n, f.spacing, spec.beta, spec.mode)
    return out


def maximal_once(vals, n, h, beta, mode):
    """The stacked pass on a stack of one."""
    return mx._maximal_once(vals[None], n, h, [beta], mode)[0]


def per_chain_maximal_chains(grid, chains):
    """The gauge's maximal chains, one per-field pass per step."""
    outs = []
    for vals, times, beta in chains:
        out = per_field_maximal(grid.with_values(vals[..., None]), mx.MaximalSpec(iterations=times))
        if beta > 0.0:
            out = per_field_maximal(grid.with_values(out[..., None]), mx.MaximalSpec(beta=beta))
        outs.append(out)
    return outs


def separate_global_majorant(u, weight, cfg, derived, omega_mask):
    """The scans' majorant F written out on its own, one per-field pass per
    chain step: 1 + f_p + a f_q, the data powers, the fractional terms, then
    the whole-box terms, each maximal term cut by the domain indicator."""
    data = tr.default_data(u, cfg)
    d0 = derived.delta0
    ref = np.asarray(omega_mask, dtype=bool)
    dnorms = {ell: g.derivative_norm(u, ell) for ell in range(cfg.m + 1)}
    F_vals = np.ones(u.dims, dtype=float)
    F_vals += data["f_p"].scalar() + weight.a.scalar() * data["f_q"].scalar()
    for r in ("p", "q"):
        for ell in range(cfg.m):
            s_hat = derived.s_hat[r][ell]
            if not math.isinf(s_hat):
                F_vals += data["g"][(r, ell)].scalar() ** s_hat
        for ell in range(cfg.m + 1):
            F_vals += data["h"][(r, ell)].scalar() ** derived.t_hat[r][ell]
    ells = range(cfg.m + 1)
    H = [wt.double_phase_field(dnorms[ell], weight, derived, cfg.q, ell).scalar() for ell in range(cfg.m)]
    chains = iter(per_chain_maximal_chains(u, [
        *[(dnorms[ell].scalar() * ref, 2 * ell + 1, derived.beta_ell[ell]) for ell in ells],
        *[(H[ell] ** d0 * ref, 2 * ell + 1, 0.0) for ell in range(cfg.m)],
    ]))
    for ell in ells:
        F_vals += next(chains) ** derived.gamma["q"][ell]
    for ell in range(cfg.m):
        F_vals += next(chains) ** (1.0 / d0)
    return F_vals


def sixteen_row_gauge(u, weight, cfg, derived, tc, data):
    """The gauge that stacked every chain of F and of the smallness radius
    with g's: one ``_maximal_chains`` call over F0's fractional chains, F's
    whole-box chains, g's chains and the chains of M^(2l+1)|D^l u|.  Returns
    g, G, F0 and F as value arrays and the smallness radius."""
    d0 = derived.delta0
    psi = tr.smooth_cutoff(u, tc.center, 2.0 * tc.R, 3.0 * tc.R).scalar()
    ells = range(cfg.m + 1)
    dnorms = {ell: g.derivative_norm(u, ell) for ell in ells}
    H = {ell: wt.double_phase_field(dnorms[ell], weight, derived, cfg.q, ell) for ell in ells}
    outs = iter(tr._maximal_chains(u, [
        *[(dnorms[ell].scalar() * psi, 2 * ell + 1, derived.beta_ell[ell]) for ell in ells],
        *[(H[ell].scalar() ** d0, 2 * ell + 1, 0.0) for ell in range(cfg.m)],
        *[(H[ell].scalar() ** d0 * psi, 2 * ell + 1, 0.0) for ell in ells],
        *[(dnorms[ell].scalar(), 2 * ell + 1, 0.0) for ell in ells],
    ]))
    F0 = np.zeros(u.dims)
    F = 1.0 + (data["f_p"].scalar() + weight.a.scalar() * data["f_q"].scalar())
    terms = [data["g"][(r, ell)].scalar() ** derived.s_hat[r][ell]
             for r in ("p", "q") for ell in range(cfg.m) if not math.isinf(derived.s_hat[r][ell])]
    terms += [data["h"][(r, ell)].scalar() ** derived.t_hat[r][ell] for r in ("p", "q") for ell in ells]
    terms += [next(outs) ** derived.gamma["q"][ell] for ell in ells]
    for term in terms:
        F0 += term
        F += term
    for ell in range(cfg.m):
        F += next(outs) ** (1.0 / d0)
    g_vals = np.zeros(u.dims)
    for ell in ells:
        g_vals += next(outs)
    g_vals = (g_vals + F0**d0) * psi
    G = mx.maximal_function(u.with_values(g_vals[..., None]), mx.MaximalSpec()).scalar() ** (1.0 / d0)
    R0 = 0.5 * (1.0 - 1e-9)
    for ell in ells:
        gp, gq = derived.gamma["p"][ell], derived.gamma["q"][ell]
        expo = cfg.alpha / cfg.q - cfg.n * (1.0 / (gp * d0) - 1.0 / (gq * d0))
        norm = float(np.sum(next(outs).reshape(-1) ** (gp * d0)) * u.cell_volume) ** (1.0 / (gp * d0))
        K = norm ** (1.0 - gp / gq)
        if K + 1.0 > 1.0 and expo > 0:
            R0 = min(R0, (1.0 / (K + 1.0)) ** (1.0 / expo))
    return {"g": g_vals, "G": G, "F0": F0, "F": F}, R0


def feasibility_walk(cfg, gammas):
    """(delta0, beta_l) from the walk over 1 - 1e-6 2^k with its own list of
    the delta0 selection inequalities, in place of ``check_derived``."""
    gamma, s_hat, t_hat = gammas["gamma"], gammas["s_hat"], gammas["t_hat"]

    def feasible(d0):
        if not (1.0 / cfg.p < d0 < 1.0):
            return False
        if cfg.beta_src > 1.0 and not (1.0 / d0 < cfg.beta_src):
            return False
        for r in ("p", "q"):
            rv = cfg.r_value(r)
            for ell in range(cfg.m + 1):
                if not (t_hat[r][ell] / d0 < cfg.t[r][ell]):
                    return False
                if not (d0 - 1.0 + 1.0 / gamma[r][ell] >= 1.0 - d0):
                    return False
            for ell in range(cfg.m):
                if not (s_hat[r][ell] / d0 < cfg.s[r][ell]):
                    return False
                if not (gamma[r][ell] / d0 < ex.sobolev_exponent(rv * d0, cfg.m - ell, cfg.n)):
                    return False
        return all(cfg.alpha / cfg.q - cfg.n * (1.0 / (gamma["p"][ell] * d0) - d0 / gamma["q"][ell]) > 0
                   for ell in range(cfg.m + 1))

    for k in range(61):
        d0 = 1.0 - 1e-6 * 2**k
        if d0 <= max(1.0 / cfg.p, 0.0):
            break
        if feasible(d0):
            return d0, tuple(cfg.n * (1.0 / (gamma["p"][ell] * d0) - d0 / gamma["q"][ell])
                             for ell in range(cfg.m + 1))
    raise ex.ExponentError("no feasible delta0")


def per_offset_maximal_once(vals, n, h, beta, mode):
    result = np.zeros_like(vals)
    for r_cells in mx._radii_cells(vals.shape):
        radius = 0.5 * h if r_cells == 0 else r_cells * h
        cand = (radius**beta if beta else 1.0) * circular_ball_average(vals, n, r_cells)
        if mode == "centered" or r_cells == 0:
            np.maximum(result, cand, out=result)
            continue
        acc = cand.copy()
        for d in disc_offsets(n, r_cells, max(1, r_cells // 8)):
            if d.any():
                shift_max(acc, cand, d)
        np.maximum(result, acc, out=result)
    return result


def filter_line_max(cand, stride, halfwidth):
    *lead, length = cand.shape
    rows = -(-length // stride)
    padded = np.zeros(lead + [rows, stride])
    padded.reshape(lead + [rows * stride])[..., :length] = cand
    out = maximum_filter1d(padded, 2 * halfwidth + 1, axis=-2, mode="constant", cval=0.0)
    return out.reshape(lead + [rows * stride])[..., :length]


def filter_line_maximal_once(vals, n, h, beta, mode):
    """The dilation with one maximum_filter1d running max per line half-width."""
    result = np.zeros_like(vals)
    for r_cells in mx._radii_cells(vals.shape):
        radius = 0.5 * h if r_cells == 0 else r_cells * h
        cand = (radius**beta if beta else 1.0) * circular_ball_average(vals, n, r_cells)
        if mode == "centered" or r_cells == 0 or mx._covers(vals.shape, r_cells):
            np.maximum(result, cand, out=result)
            continue
        stride = max(1, r_cells // 8)
        prefixes, halfwidths = mx._disc_rows(n, r_cells, stride)
        lines = {k: filter_line_max(cand, stride, int(k)) for k in np.unique(halfwidths)}
        acc = np.zeros_like(vals)
        for prefix, k in zip(prefixes, halfwidths):
            shift_max(acc, lines[k], np.append(prefix, 0))
        np.maximum(result, acc, out=result)
    return result


def circular_riesz_potential(f, spec):
    vals = np.sqrt(np.sum(f.values**2, axis=-1)) if f.components > 1 else np.abs(f.scalar())
    vals = np.where(spec.region.mask_for(f), vals, 0.0)
    h = f.spacing
    offs = np.meshgrid(*[np.arange(-(d - 1), d) * h for d in f.dims], indexing="ij")
    dist = np.sqrt(sum(o**2 for o in offs))
    with np.errstate(divide="ignore"):
        kernel = dist ** (spec.gamma - f.n) * (h**f.n)
    kernel[tuple(d - 1 for d in f.dims)] = pt._self_cell_weight(f.n, h, spec.gamma)
    out = circular_same(vals, kernel)
    np.maximum(out, 0.0, out=out)
    return out[..., None]


def per_step_iterated_maximal(f, spec):
    """One restricted per-field pass per iteration."""
    out = f
    for _ in range(spec.iterations):
        out = out.with_values(per_field_maximal(out, dataclasses.replace(spec, iterations=1))[..., None])
    return out


def dense_min_convolution(pts_x, pts_y, vals_y, alpha):
    """Every pair value, a block of 256 x rows at a time (each row's minimum
    is its own, so the blocks only bound the memory)."""
    out = []
    for px in np.array_split(pts_x, max(1, -(-len(pts_x) // 256))):
        d2 = (px[:, 0][:, None] - pts_y[:, 0][None, :]) ** 2
        for ax in range(1, pts_x.shape[1]):
            d2 += (px[:, ax][:, None] - pts_y[:, ax][None, :]) ** 2
        out.append(np.min(vals_y[None, :] + wt._alpha_power_of_sq(d2, alpha), axis=1))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# maximal operator
# ---------------------------------------------------------------------------


@pytest.fixture()
def convolved(monkeypatch):
    """Every stack ``_maximal_once`` hands ``_fft_same``; the per-field
    oracles pass single fields, which are left out."""
    stacks = []
    fft_same = mx._fft_same

    def spy(x, kshape, kernel_spectrum, held=None, keep=False):
        if x.ndim > len(kshape):
            stacks.append(x)
        return fft_same(x, kshape, kernel_spectrum, held, keep)

    monkeypatch.setattr(mx, "_fft_same", spy)
    return stacks


def rows_of(sub, stack):
    """The rows of ``stack`` that a convolved sub-stack holds, told apart by value."""
    return {k for k, row in enumerate(stack) for x in sub if np.array_equal(x, row, equal_nan=True)}


def convolving_radii(dims):
    """How many radii of the family convolve on a lattice of these dims."""
    return sum(1 for r in mx._radii_cells(dims) if r and not mx._covers(dims, r))


def samples(n, size, seed):
    rng = np.random.default_rng(seed)
    rough = g.create_grid(g.box([-1.0] * n, [1.0] * n), size, fourier_sampler(rng, n))
    shape = (size,) * n
    sparse = np.zeros(shape)
    sparse.reshape(-1)[rng.choice(sparse.size, size=max(1, sparse.size // 50), replace=False)] = 1.0
    return {"rough": np.abs(rough.scalar()), "zero": np.zeros(shape), "constant": np.full(shape, 0.7),
            "sparse": sparse}


@pytest.mark.parametrize("n,size", [(1, 37), (1, 96), (2, 37), (2, 53), (2, 96), (2, 128), (3, 16), (3, 24)])
def test_fft_same_matches_fftconvolve(n, size):
    """Every non-covering disc kernel, through its distinct-line spectrum
    at its clipped shape, and the Riesz kernel's (2d-1)^n shape, through the
    dense one."""
    dims = (size,) * n
    kernels = [(disc_kernel(n, r), *disc_spectrum(dims, r)) for r in mx.padded_shapes(dims)]
    dense = np.random.default_rng(size).random((2 * size - 1,) * n)
    kernels.append((dense, dense.shape, dense_spectrum(dense)))
    for name, vals in samples(n, size, seed=size + n).items():
        for kernel, kshape, spectrum in kernels:
            fast = mx._fft_same(vals, kshape, spectrum)
            slow = circular_same(vals, kernel)
            assert fast.tobytes() == slow.tobytes(), (name, kernel.shape)


@pytest.mark.parametrize("n,size", [(1, 37), (2, 23), (3, 9)])
def test_fft_same_agrees_with_linear_fftconvolve(n, size):
    """The padded-to-the-window convolution against the linear one,
    ``scipy.signal.fftconvolve(mode="same")``, at disc radii from 1 to 2d
    (past the lattice, where the kernel is clipped) and at a dense
    (2d-1)^n kernel.  The tolerance is argued before the run from the bound
    ``maximal._MASS_SLACK``'s comment cites: an FFT convolution of N padded
    cells is within (3 rho + u) ||x||_2 ||k||_2 of the exact one in l2, so
    in every cell, with rho = 6 u log2(N); both are, so they differ by at
    most twice that, N the larger (linear) padded size."""
    dims = (size,) * n
    u = np.finfo(float).eps / 2
    n_cells = math.prod(next_fast_len(3 * size, True) for _ in dims)  # at least d + 2c for every kernel here
    kernels = [(disc_kernel(n, r), *disc_spectrum(dims, r)) for r in (1, 3, size // 2, size - 1, size, 2 * size)]
    dense = np.random.default_rng(size).random((2 * size - 1,) * n)
    kernels.append((dense, dense.shape, dense_spectrum(dense)))
    for name, vals in samples(n, size, seed=size + n).items():
        for kernel, kshape, spectrum in kernels:
            fast = mx._fft_same(vals, kshape, spectrum)
            slow = fftconvolve(vals, kernel, mode="same")
            tol = 2 * (3 * 6 * u * math.log2(n_cells) + u) * np.linalg.norm(vals) * np.linalg.norm(kernel)
            assert np.max(np.abs(fast - slow), initial=0.0) <= tol, (name, kernel.shape)


@pytest.mark.parametrize("n,size", [(n, size) for n in (1, 2) for size in (37, 96, 128, 256)]
                         + [(3, size) for size in (16, 24, 32, 48)])
def test_disc_spectrum_matches_dense_kernel(n, size):
    """The spectrum gathered from the disc's distinct lines is the dense
    clipped kernel's, bit for bit, at every radius that convolves."""
    dims = (size,) * n
    for r, fshape in mx.padded_shapes(dims).items():
        fast = whole_spectrum(disc_spectrum(dims, r)[1], fshape)
        slow = spectrum(clipped(disc_kernel(n, r), dims), fshape)
        assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes(), r


def test_disc_spectra_are_kept_read_only_within_their_bound(monkeypatch):
    """Each disc kernel's spectrum comes back read-only; a second call
    returns the same arrays when the lines fit ``_KEPT_SPECTRUM_BYTES`` and
    new ones, equal, when they do not.  On 256^2 the two widest discs do not."""
    monkeypatch.setattr(mx, "_DISC_SPECTRA", {})
    dims, kept = (256, 256), []
    for r, fshape in mx.padded_shapes(dims).items():
        kshape = mx._disc_shape(dims, r)
        lines, index = mx._disc_spectrum(r, kshape, tuple(fshape))
        assert not lines.flags.writeable and not index.flags.writeable
        again = mx._disc_spectrum(r, kshape, tuple(fshape))
        assert again[0].tobytes() == lines.tobytes() and np.array_equal(again[1], index)
        assert (again[0] is lines) == (lines.nbytes <= mx._KEPT_SPECTRUM_BYTES), r
        kept.append(again[0] is lines)
    assert kept == [True] * (len(kept) - 2) + [False] * 2


@pytest.mark.parametrize("n,size", [(1, 96), (2, 53), (2, 128), (3, 16)])
def test_in_place_product_matches_out_of_place(n, size):
    """The product ``_fft_same`` takes in place, in the field spectrum, is
    the out-of-place one bit for bit on every layout the maximal pass makes
    (a K-row stack's spectrum times the broadcast kernel spectrum) and on
    the Riesz potential's (one field, one kernel of its shape)."""
    pool = stack_pool(n, size)
    for r, fshape in mx.padded_shapes((size,) * n).items():
        kernel = whole_spectrum(disc_spectrum((size,) * n, r)[1], fshape)
        for x in (np.stack(pool[:1]), np.stack(pool[:2]), np.stack(pool), pool[-1]):
            sp = spectrum(x, fshape)
            want = sp * kernel
            sp *= kernel
            assert sp.tobytes() == want.tobytes(), (r, x.shape)


@pytest.mark.parametrize("n,size", [(2, 128), (2, 256), (3, 24), (3, 32)])
def test_fft_same_holds_at_most_three_and_a_half_spectra(n, size):
    """The tracemalloc peak of each call the maximal pass makes on a stack
    of one row, the spectrum it holds for the next radius included, is at
    most 3.5 padded field spectra of 16 K F_0 ... F_(n-2) (F_(n-1)//2 + 1)
    bytes.  A call that keeps nothing takes the product in place, so while
    the disc spans at most an eighth of the lattice it stays under 2.5: an
    out-of-place product alone holds three."""
    x = samples(n, size, seed=n)["rough"][None]
    fshapes = mx.padded_shapes((size,) * n)
    radii, held, ratios, in_place = list(fshapes), {}, {}, []
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for i, r in enumerate(radii):
            mx._disc_count(n, r)  # the disc's lines, as the pass reads them first
            keep = i + 1 < len(radii) and fshapes[radii[i + 1]] == fshapes[r]
            if not keep and 8 * r <= size:
                in_place.append(r)
            kept = held["spectrum"][1].nbytes if "spectrum" in held else 0
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0] - kept
            out = mx._fft_same(x, *disc_spectrum((size,) * n, r), held, keep)
            peak = tracemalloc.get_traced_memory()[1] - before
            del out
            fshape = fshapes[r]
            ratios[r] = peak / (16 * len(x) * math.prod(fshape[:-1]) * (fshape[-1] // 2 + 1))
    finally:
        if started:
            tracemalloc.stop()
    assert max(ratios.values()) <= 3.5, ratios
    assert in_place and all(ratios[r] < 2.5 for r in in_place), ratios


def test_next_fast_len_matches_scipy():
    lengths = range(1, 20001)
    assert [mx._next_fast_len(n) for n in lengths] == [next_fast_len(n, True) for n in lengths]


def test_fft_same_with_a_held_spectrum_matches_fftconvolve(monkeypatch):
    """Radii 2-6 share a padded shape on 53^2, so their calls reuse the
    spectrum: four field spectra for seven radii.  A call that does not
    keep its spectrum leaves none held."""
    vals = samples(2, 53, seed=1)["rough"]
    spectra = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, length: (x is vals and spectra.append(length)) or rfft(x, length))
    held = {}
    for r in (1, 2, 3, 4, 6, 8, 12):
        fast = mx._fft_same(vals, *disc_spectrum(vals.shape, r), held, keep=True)
        assert fast.tobytes() == circular_same(vals, disc_kernel(2, r)).tobytes(), r
        assert held["spectrum"][0] == [next_fast_len(53 + r, True)] * 2
    assert len(spectra) == 4
    fast = mx._fft_same(vals, *disc_spectrum(vals.shape, 12), held)
    assert fast.tobytes() == circular_same(vals, disc_kernel(2, 12)).tobytes()
    assert held == {} and len(spectra) == 4


@pytest.fixture(params=[1, 3], ids=["one-frequency slabs", "three-frequency slabs"])
def slabs(request, monkeypatch):
    """Every ``_fft_same`` call, the Riesz potential's included, runs with
    the slab budget that makes its slabs one last-axis frequency wide, or
    three, so that the last slab of most spectra is narrower; the (start,
    stop) frequencies of the slabs each call ran are recorded."""
    width, runs = request.param, []
    fft_same, slab = mx._fft_same, mx._slab

    def budgeted(x, kshape, kernel_spectrum, held=None, keep=False):
        n = len(kshape)
        fshape = [mx._next_fast_len(a + (b - 1) // 2) for a, b in zip(x.shape[x.ndim - n:], kshape)]
        rows = math.prod(x.shape[:x.ndim - n])
        monkeypatch.setattr(mx, "_SLAB_BYTES", 16 * rows * math.prod(fshape[:-1]) * width)
        runs.append((n, fshape[-1] // 2 + 1, set()))
        return fft_same(x, kshape, kernel_spectrum, held, keep)

    def spy(box, lo, hi):
        runs[-1][2].add((lo, hi))
        return slab(box, lo, hi)

    monkeypatch.setattr(mx, "_fft_same", budgeted)
    monkeypatch.setattr(pt, "_fft_same", budgeted)
    monkeypatch.setattr(mx, "_slab", spy)
    return width, runs


def ran_slabs(width, runs):
    """Each call's slabs tile its frequencies in order, none wider than
    ``width`` but on a 1-D lattice, where a call runs one slab; with
    three-frequency slabs, some call's last slab is narrower."""
    for n, half, spans in runs:
        spans = sorted(spans)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]] and spans[-1][1] == half
        assert all(hi - lo <= width for lo, hi in spans) if n > 1 else len(spans) == 1
    slabbed = [spans for n, _, spans in runs if n > 1]
    assert width == 1 or not slabbed or any(len({hi - lo for lo, hi in spans}) > 1 for spans in slabbed)


@pytest.mark.parametrize("n,size", [(1, 37), (2, 23), (3, 8)])
def test_slabs_match_fftconvolve(slabs, n, size):
    """Stacks of K = 1..7 rows through every disc kernel that convolves,
    and the Riesz kernel, slab by slab, each row bitwise its circular
    definition."""
    pool = stack_pool(n, size)
    for r in mx.padded_shapes((size,) * n):
        kernel = disc_kernel(n, r)
        want = [circular_same(vals, kernel).tobytes() for vals in pool]
        for K in range(1, len(pool) + 1):
            fast = mx._fft_same(np.stack(pool[:K]), *disc_spectrum((size,) * n, r))
            assert [row.tobytes() for row in fast] == want[:K], (r, K)
    f = g.create_grid(g.box([-1.0] * n, [1.0] * n), size, fourier_sampler(np.random.default_rng(size), n))
    for gamma in (0.5, n / 2):
        spec = pt.PotentialSpec(gamma=gamma, region=g.ball([0.3] * n, 0.8))
        assert pt.riesz_potential(f, spec).values.tobytes() == circular_riesz_potential(f, spec).tobytes(), gamma
    ran_slabs(*slabs)


@pytest.mark.parametrize("n,size,padded", [(1, 37, 108), (2, 23, 75), (3, 8, 32)])
@pytest.mark.parametrize("mode", ["uncentered", "centered"])
def test_held_slabs_match_fftconvolve(monkeypatch, slabs, convolved, n, size, padded, mode):
    """Every radius padded to one shape, the circular definition's too: each
    call may take, slab by slab, the spectrum the last one held, and a radius
    whose rows differ must not; each field is bitwise its pass through the
    circular definition."""
    monkeypatch.setattr(mx, "_next_fast_len", lambda length: padded)
    monkeypatch.setattr("scipy.fft.next_fast_len", lambda target, real=False: padded)
    h = 2.0 / size
    pool = stack_pool(n, size)
    betas = [0.0, 0.5, n / 2, 0.0, 0.25, 0.5, 0.0]
    fast = mx._maximal_once(np.stack(pool), n, h, betas, mode)
    assert len({len(sub) for sub in convolved}) > 1  # the rows change from radius to radius
    for k, (vals, beta) in enumerate(zip(pool, betas)):
        assert fast[k].tobytes() == filter_line_maximal_once(vals, n, h, beta, mode).tobytes(), k
    ran_slabs(*slabs)


def fft_same_bound(dims, K, r):
    """``_fft_same``'s bound on its own memory for K fields and the disc of
    radius r: the last-axis transforms of the field's rows, of every kernel
    line (the distinct lines and each slab's gather of them) and of the
    irfft's input, 16 (2 K d_0 ... d_(n-2) + k_0 ... k_(n-2)) (F_(n-1)//2 + 1)
    bytes, k the disc's clipped shape and F its padded shape, plus two slabs
    of the padded field spectrum."""
    fshape = mx.padded_shapes(dims)[r]
    half, width = fshape[-1] // 2 + 1, mx._slab_width(K, fshape)
    kshape = mx._disc_shape(dims, r)
    rows = 16 * (2 * K * math.prod(dims[:-1]) + math.prod(kshape[:-1])) * half
    return rows + 2 * 16 * K * math.prod(fshape[:-1]) * width


@pytest.mark.parametrize("n,size,K", [(2, 256, 1), (2, 128, 4), (3, 32, 1), (3, 24, 3)])
def test_fft_same_holds_rows_and_two_slabs(monkeypatch, n, size, K):
    """The tracemalloc peak of each call the maximal pass makes whose
    spectrum spans at least four slabs is at most a bound from the shapes
    alone, ``fft_same_bound``.  The slab budget is a quarter of the
    package's, so that the largest spectra of these lattices, 2 to 3 MB,
    span four slabs or more."""
    monkeypatch.setattr(mx, "_SLAB_BYTES", mx._SLAB_BYTES // 4)
    dims = (size,) * n
    x = np.stack([samples(n, size, seed=k)["rough"] for k in range(K)])
    ratios = {}
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for r, fshape in mx.padded_shapes(dims).items():
            half, width = fshape[-1] // 2 + 1, mx._slab_width(K, fshape)
            if -(-half // width) < 4:
                continue
            kshape, disc = disc_spectrum(dims, r)
            bound = fft_same_bound(dims, K, r)
            mx._disc_count(n, r)  # the disc's lines, as the pass reads them first
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = mx._fft_same(x, kshape, disc)
            ratios[r] = (tracemalloc.get_traced_memory()[1] - before) / bound
            del out
    finally:
        if started:
            tracemalloc.stop()
    assert len(ratios) >= 2 and max(ratios.values()) <= 1.0, ratios


@pytest.mark.parametrize("n,size,gamma", [(n, size, gamma) for n, size in [(1, 96), (2, 37), (2, 64), (3, 16)]
                                          for gamma in (0.3, 0.5, 1.0) if gamma < n])
def test_riesz_matches_fftconvolve_definition(n, size, gamma):
    rng = np.random.default_rng(size + n)
    f = g.create_grid(g.box([-1.0] * n, [1.0] * n), size, fourier_sampler(rng, n))
    for center, radius in (([0.0] * n, 1.0), ([0.3] * n, 0.5), ([-0.9] * n, 2.0)):
        spec = pt.PotentialSpec(gamma=gamma, region=g.ball(center, radius))
        fast = pt.riesz_potential(f, spec)
        assert fast.values.tobytes() == circular_riesz_potential(f, spec).tobytes(), (center, radius)


@pytest.mark.parametrize("n,size", [(1, 96), (2, 37), (2, 128), (3, 24)])
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_line_maxima_match_maximum_filter(n, size, beta, convolved):
    h = 2.0 / size
    smp = samples(n, size, seed=size + n)
    for name, vals in smp.items():
        fast = maximal_once(vals, n, h, beta, "uncentered")
        slow = filter_line_maximal_once(vals, n, h, beta, "uncentered")
        assert fast.tobytes() == slow.tobytes(), name
    nonzero = sum(1 for vals in smp.values() if vals.any())
    assert sum(map(len, convolved)) < nonzero * convolving_radii((size,) * n)


@pytest.mark.parametrize("n,size", [(1, 37), (1, 96), (2, 37), (2, 96), (3, 16)])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("mode", ["uncentered", "centered"])
def test_maximal_matches_per_offset_oracle(n, size, beta, mode, convolved):
    h = 2.0 / size
    smp = samples(n, size, seed=size + n)
    for name, vals in smp.items():
        convolved.clear()
        fast = maximal_once(vals, n, h, beta, mode)
        slow = per_offset_maximal_once(vals, n, h, beta, mode)
        assert fast.tobytes() == slow.tobytes(), name
        if name == "zero":
            assert convolved == [], "a zero field needs no convolution"
    # below beta = n/2 the largest radii are too diluted to win; at n/2 the
    # uncentered dilation still lifts every cell above their bound
    if beta < n / 2 or beta == n / 2 and mode == "uncentered":
        convolved.clear()
        for name in ("rough", "constant", "sparse"):
            maximal_once(smp[name], n, h, beta, mode)
        assert sum(map(len, convolved)) < 3 * convolving_radii((size,) * n)


@pytest.mark.parametrize("n,size", [(1, 40), (2, 30), (3, 20)])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_every_radius_dilates_as_the_per_offset_oracle(monkeypatch, convolved, n, size, beta):
    """With no row of a nonzero field ever dropped (an infinite mass slack;
    a zero field's bound would be 0 inf), every radius runs its dilation
    plan, stride 1 at radius 12 (twelve line maxima in 3-D) and strides 2,
    3 and 4 at radii 16 to 32, each bitwise the per-offset oracle.  In 1-D
    and 2-D the plan makes the shift-max ops of the line-by-line dilation,
    two per growth step and one per disc line; in 3-D all radii together
    make fewer."""
    monkeypatch.setattr(mx, "_MASS_SLACK", math.inf)
    dims, h = (size,) * n, 2.0 / size
    radii = list(mx.padded_shapes(dims))
    assert {12, 16, 24, 32} <= set(radii)
    for name, vals in samples(n, size, seed=size + n).items():
        if name != "zero":
            convolved.clear()
            fast = maximal_once(vals, n, h, beta, "uncentered")
            assert len(convolved) == len(radii), name
            assert fast.tobytes() == per_offset_maximal_once(vals, n, h, beta, "uncentered").tobytes(), name
    shifts, lines = [], []
    for r in radii:
        stride = max(1, r // 8)
        _stacks, _zeroed, ops = mx._dilation_plan(n, r, stride)
        prefixes, halfwidths = mx._disc_rows(n, r, stride)
        shifts.append(sum(index is not None for _dst, _src, index in ops))
        lines.append(2 * int(halfwidths.max()) + len(prefixes))
    assert shifts == lines if n < 3 else sum(shifts) < sum(lines), (shifts, lines)


def per_offset_dilation(cand, n, r_cells):
    """The per-offset oracle's dilation at one radius: one shift-max per
    stride-r//8 disc offset."""
    acc = cand.copy()
    for d in disc_offsets(n, r_cells, max(1, r_cells // 8)):
        if d.any():
            shift_max(acc, cand, d)
    return acc


def clipped_candidates(dims, K, seed):
    """K candidate fields as ``_maximal_once`` hands them to the dilation,
    clipped by ``maximum(cand, 0.0)``: about half the cells are +0.0 (from
    negatives and -0.0), each last-axis row ends, and some rows start, with
    a run of +0.0 of a random length up to the whole row, and one field
    holds an inf and a NaN."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((K, *dims))
    raw[raw < -1.0] = -0.0
    cols = np.arange(dims[-1])
    ends = rng.integers(0, dims[-1] + 1, size=(K, *dims[:-1], 1))
    starts = rng.integers(0, 3, size=(K, *dims[:-1], 1))
    raw[(cols >= dims[-1] - ends) | (cols < starts)] = -0.0
    raw[-1].reshape(-1)[[1, -2]] = np.inf, np.nan
    return np.maximum(raw, 0.0)


@pytest.mark.parametrize("dims", [(9, 40), (40, 9), (2, 37), (37, 2), (37,), (7, 5, 9)])
def test_dilation_matches_per_offset_dilation(dims):
    """``_dilate`` alone is bitwise the per-offset dilation at every radius
    that convolves, some reaching past d - 1 along an axis, for K = 1..7
    fields with rows dropped as the mass bound drops them: the kept fields
    sit at the head of two buffers shared by every call, which start out
    NaN and which wider stacks and other radii's layouts leave stale, the
    radii run up and back down.  (In 1-D no disc that reaches d - 1
    convolves: it covers the lattice.)"""
    n = len(dims)
    radii = list(mx.padded_shapes(dims))
    assert n == 1 or any(r > e - 1 for r in radii for e in dims)
    widest = max(mx._lattice_plan(dims, r)[2] for r in radii)
    bufs = [np.full(7 * math.prod(dims[:-1]) * (dims[-1] + widest), np.nan) for _ in range(2)]
    pool = clipped_candidates(dims, 7, seed=sum(dims))
    want = {r: [per_offset_dilation(cand, n, r) for cand in pool] for r in radii}
    for K in range(1, 8):
        for i, r in enumerate(radii + radii[::-1]):
            kept = [k for k in range(K) if (k + i) % 3] or [K - 1]
            g = mx._lattice_plan(dims, r)[2]
            mx._guarded(bufs[0], len(kept), dims, g)[..., :dims[-1]] = pool[kept]
            out = mx._dilate(bufs, len(kept), dims, r)
            for j, k in enumerate(kept):
                assert out[j].tobytes() == want[r][k].tobytes(), (K, r, k)


@pytest.mark.parametrize("dims", [(37,), (256,), (9, 40), (40, 9), (2, 37), (37, 2), (96, 96), (128, 128),
                                  (256, 256), (12, 10, 9)])
def test_row_shifts_read_the_candidates_within_the_guard(dims):
    """The exactness invariant of the guarded layout: every last-axis shift
    of ``_dilation_plan`` moves along the last axis alone and reads stack 0,
    the candidates, which no op writes; g is the longest such shift shorter
    than the row (0 in 3-D), at most min(r, d - 1), and the layout runs
    those shifts, and no other nonzero shift, over the flat stacks."""
    n, d = len(dims), dims[-1]
    for r in mx.padded_shapes(dims):
        _count, _zeroed, ops = mx._dilation_plan(n, r, max(1, r // 8))
        _count, _zeroed, g, laid = mx._lattice_plan(dims, r)
        assert all(dst != 0 for dst, _src, _off in ops)
        rows = [(src, off) for _dst, src, off in ops if off is not None and off[-1]]
        assert all(src == 0 and not any(off[:-1]) for src, off in rows), r
        short = [abs(off[-1]) for _src, off in rows if abs(off[-1]) < d]
        assert g == (0 if n > 2 else max(short, default=0)) and g <= min(r, d - 1), (r, g)
        flat = [(src, index[0][-1]) for _dst, src, is_flat, index in laid
                if is_flat and index is not None and index[0][-1] != slice(None)]
        assert len(flat) == (len(short) if g else 0), r
        assert all(src == 0 and abs(cut.start or cut.stop) <= g for src, cut in flat), r


@pytest.mark.parametrize("dims,K", [((128, 128), 4), ((256, 256), 1), ((32, 32, 32), 1)])
def test_maximal_pass_holds_guarded_stacks_and_one_convolution(dims, K):
    """The tracemalloc peak of one uncentered ``_maximal_once`` pass (its
    kernel spectra cached by a first pass) is at most the plan's stacks at
    the widest guard, count K d_0 ... d_(n-2) (d + g) 8 bytes, plus
    ``fft_same_bound`` at the largest radius that convolves; in 3-D, where
    g = 0, the stacks are each the size of the field stack."""
    n = len(dims)
    x = np.stack([samples(n, dims[0], seed=k)["rough"] for k in range(K)])
    radii = list(mx.padded_shapes(dims))
    plans = [mx._lattice_plan(dims, r) for r in radii]
    g = max(plan[2] for plan in plans)
    assert g > 0 if n < 3 else g == 0
    bound = max(plan[0] for plan in plans) * K * math.prod(dims[:-1]) * (dims[-1] + g) * 8
    bound += fft_same_bound(dims, K, radii[-1])
    mx._maximal_once(x, n, 2.0 / dims[0], [0.0] * K, "uncentered")
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = mx._maximal_once(x, n, 2.0 / dims[0], [0.0] * K, "uncentered")
        peak = tracemalloc.get_traced_memory()[1] - before
        del out
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= bound, peak / bound


@pytest.mark.parametrize("n", [1, 2, 3])
def test_disc_count_matches_kernel(n):
    for r in (1, 2, 3, 5, 8, 12, 17):
        assert mx._disc_count(n, r) == int(disc_kernel(n, r).sum())


@pytest.mark.parametrize("n,size", [(1, 64), (2, 32)])
@pytest.mark.parametrize("iterations", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("restricted", [False, True])
def test_iterations_match_per_step_loop(n, size, iterations, beta, restricted, convolved):
    rng = np.random.default_rng(size + n)
    sampler = fourier_sampler(rng, n)
    # two components, so the first step takes the pointwise Euclidean norm
    f = g.create_grid(g.box([-1.0] * n, [1.0] * n), size,
                      lambda p: np.stack([sampler(p), np.cos(3.0 * p[:, 0])], axis=-1))
    region = g.ball([0.2] * n, 0.6) if restricted else None
    spec = mx.MaximalSpec(beta=beta, restriction=region, iterations=iterations)
    fast = mx.maximal_function(f, spec)
    assert len(convolved) and sum(map(len, convolved)) < iterations * convolving_radii((size,) * n)
    slow = per_step_iterated_maximal(f, spec)
    assert fast.values.tobytes() == slow.values.tobytes()


def stack_pool(n, size):
    """Fields to stack: a large field first, then a zero field, a field
    whose values all lie below the large field's noise floor, a constant,
    a sparse and a rough field; each field's floor must be its own."""
    smp = samples(n, size, seed=size + n)
    rough = smp["rough"]
    return [1e6 * rough, smp["zero"], 1e-9 * rough, smp["constant"], smp["sparse"], rough, rough**2]


@pytest.mark.parametrize("n,size", [(1, 96), (2, 37), (2, 53), (3, 16)])
@pytest.mark.parametrize("mode", ["uncentered", "centered"])
def test_stacked_pass_matches_per_field_pass(n, size, mode, convolved):
    """K = 1..7 fields with mixed beta; every size reaches covering radii."""
    h = 2.0 / size
    pool = stack_pool(n, size)
    betas = [0.0, 0.5, n / 2, 0.0, 0.25, 0.5, 0.0]
    want = [per_field_maximal_once(vals, n, h, beta, mode) for vals, beta in zip(pool, betas)]
    assert any(mx._covers((size,) * n, r) for r in mx._radii_cells((size,) * n))
    for K in range(1, len(pool) + 1):
        convolved.clear()
        fast = mx._maximal_once(np.stack(pool[:K]), n, h, betas[:K], mode)
        for k in range(K):
            assert fast[k].tobytes() == want[k].tobytes(), (K, k)
    # the zero field sits out every radius, and some other field sits out one
    assert max(map(len, convolved)) == K - 1
    assert sum(map(len, convolved)) < (K - 1) * convolving_radii((size,) * n)


@pytest.mark.parametrize("n,size", [(1, 64), (2, 32), (3, 12)])
@pytest.mark.parametrize("mode", ["uncentered", "centered"])
def test_maximal_stack_matches_per_field_maximal(n, size, mode, convolved):
    """Mixed beta, restrictions and iteration counts in one stack."""
    rng = np.random.default_rng(size + n)
    sampler = fourier_sampler(rng, n)
    grid = g.create_grid(g.box([-1.0] * n, [1.0] * n), size, sampler)
    pair = g.create_grid(g.box([-1.0] * n, [1.0] * n), size,
                         lambda p: np.stack([sampler(p), np.cos(3.0 * p[:, 0])], axis=-1))
    fields = [grid.with_values(v[..., None]) for v in stack_pool(n, size)] + [pair]
    region = g.ball([0.2] * n, 0.6)
    specs = [mx.MaximalSpec(beta=beta, mode=mode, restriction=res, iterations=it)
             for beta, res, it in [(0.0, None, 1), (0.5, region, 2), (0.0, region, 3), (0.25, None, 1),
                                   (0.0, None, 2), (0.5, region, 1), (0.0, region, 1), (0.0, None, 3)]]
    for f, spec, out in zip(fields, specs, mx.maximal_stack(fields, specs)):
        assert out.values.tobytes() == per_field_maximal(f, spec)[..., None].tobytes(), spec
    levels = sum(s.iterations for s in specs)  # rows over the three iteration levels
    assert len(convolved) and sum(map(len, convolved)) < levels * convolving_radii((size,) * n)


def gauge_fields(monkeypatch, *args, **kwargs):
    """``assemble_g``'s G, with the gauge g it takes the maximal function of
    and the data term F0 summed from the terms it draws from ``_F0_terms``,
    as scalar arrays."""
    seen = {}
    F0_terms, maximal_function = tr._F0_terms, tr.maximal_function
    with monkeypatch.context() as m:
        m.setattr(tr, "_F0_terms", lambda *a: seen.setdefault("F0", list(F0_terms(*a))))
        m.setattr(tr, "maximal_function", lambda f, spec: maximal_function(seen.setdefault("g", f), spec))
        G = tr.assemble_g(*args, **kwargs).G
    return {"g": seen["g"].scalar(), "G": G.scalar(), "F0": sum(seen["F0"], np.zeros(G.dims))}


def test_gauge_matches_per_chain_path(monkeypatch, scan_inputs, convolved):
    """assemble_g, smallness_radius and global_majorant, field by field,
    against one per-field pass per chain step, and the stacked passes they
    make."""
    u, w, cfg, der, tc, data = suites.truncation_fixture(48)
    su, sw, scfg, sder, omega = scan_inputs
    calls = []
    once = mx._maximal_once
    monkeypatch.setattr(mx, "_maximal_once", lambda stack, *a: calls.append(len(stack)) or once(stack, *a))
    stacked = gauge_fields(monkeypatch, u, w, cfg, der, tc, data=data)
    assert calls == [4, 2, 2, 2, 1]  # 3 iteration levels, the fractional step, then G
    calls.clear()
    R0 = tr.smallness_radius(u, cfg, der)
    assert calls == [2, 1, 1]
    calls.clear()
    majorant = tr.global_majorant(su, sw, scfg, sder, omega.mask_for(su))
    assert calls == [3, 1, 1, 2]
    # 11 rows in the gauge's passes, 4 in the radius's and 7 in the
    # majorant's, if none sat out
    rows = 15 * convolving_radii(u.dims) + 7 * convolving_radii(su.dims)
    assert len(convolved) and sum(map(len, convolved)) < rows
    monkeypatch.setattr(tr, "_maximal_chains", per_chain_maximal_chains)
    per_chain = gauge_fields(monkeypatch, u, w, cfg, der, tc, data=data)
    for name in ("g", "G", "F0"):
        assert stacked[name].tobytes() == per_chain[name].tobytes(), name
    assert R0.hex() == tr.smallness_radius(u, cfg, der).hex()
    want = separate_global_majorant(su, sw, scfg, sder, omega.mask_for(su))
    assert majorant.scalar().tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [48, 128])
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_gauge_matches_sixteen_row_gauge(monkeypatch, size, scale):
    """The gauge without F's whole-box chains and the smallness radius's
    chains in its stack: g, G and F0 bit for bit, the radius by ``.hex()``,
    and the gauge's F, built from ``_majorant_chains`` and ``_majorant`` with
    cut psi and box cut 1, bit for bit.  On the fixture the radius is its
    cap (1 - 1e-9)/2; on 100 u the maximal norms bind it."""
    u, w, cfg, der, tc, data = suites.truncation_fixture(size)
    u = u.with_values(u.values * scale)
    want, want_R0 = sixteen_row_gauge(u, w, cfg, der, tc, data)
    fields = gauge_fields(monkeypatch, u, w, cfg, der, tc, data=data)
    for name in ("g", "G", "F0"):
        assert fields[name].tobytes() == want[name].tobytes(), name
    R0 = tr.smallness_radius(u, cfg, der)
    assert R0.hex() == want_R0.hex()
    assert (R0 < 0.5 * (1.0 - 1e-9)) == (scale > 1.0)
    dnorms = {ell: g.derivative_norm(u, ell) for ell in range(cfg.m + 1)}
    H = {ell: wt.double_phase_field(dnorms[ell], w, der, cfg.q, ell) for ell in range(cfg.m)}
    psi = tr.smooth_cutoff(u, tc.center, 2.0 * tc.R, 3.0 * tc.R).scalar()
    outs = tr._maximal_chains(u, tr._majorant_chains(dnorms, H, cfg, der, psi, 1.0))
    assert tr._majorant(w, cfg, der, data, outs).tobytes() == want["F"].tobytes()


def random_exponent_config(rng):
    """A config whose t and finite s sit from 1e-7 to 5x above their lower
    bounds, with beta_src 1, just above 1 or in (1, 3)."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    p, alpha = float(rng.uniform(1.05, 4.0)), float(rng.uniform(0.05, 1.5))
    q = p * (1.0 + float(rng.uniform(0.0, 1.0)) * alpha / n)
    beta_src = [1.0, 1.0 + 10.0 ** rng.uniform(-8, -3), float(rng.uniform(1.0, 3.0))][int(rng.integers(0, 3))]
    s, t = {}, {}
    for r, rv in (("p", p), ("q", q)):
        inv_up = [1.0 / ex.sobolev_exponent(rv, m - ell, n) for ell in range(m + 1)]

        def above(bound):
            return math.inf if rng.random() < 0.4 else bound * (1.0 + 10.0 ** rng.uniform(-7, 0.7))

        t[r] = tuple(above(1.0 / (1.0 - inv_up[ell])) for ell in range(m + 1))
        s[r] = tuple(above(1.0 / (1.0 / rv - inv_up[ell])) for ell in range(m)) + (math.inf,)
    return ex.ExponentConfig(n=n, m=m, p=p, q=q, alpha=alpha, beta_src=beta_src, s=s, t=t)


def test_select_delta0_matches_feasibility_walk():
    """The first block check_derived passes is the walk's delta0 and
    beta_l, bit for bit, and both raise on the same configs, except where
    beta_src <= 1/(1 - 1e-6) fails the walk's every candidate: there the
    block at the midpoint of (1/beta_src, 1) is taken if it passes."""
    rng = np.random.default_rng(0xDE17A0)
    seen = {"raised": 0, "m": set(), "unit beta_src": 0, "finite t": 0, "midpoint": 0}
    for _ in range(1500):
        cfg = random_exponent_config(rng)
        try:
            gammas = ex.select_gammas(cfg)
        except ex.ExponentError:
            continue
        try:
            want = feasibility_walk(cfg, gammas)
        except ex.ExponentError:
            midpoint = ex._block(cfg, gammas, 0.5 * (1.0 + 1.0 / cfg.beta_src))
            if 1.0 < cfg.beta_src <= 1.0 / (1.0 - 1e-6) and all(c.ok for c in ex.check_derived(cfg, midpoint)):
                assert ex.select_delta0(cfg, gammas) == midpoint, cfg
                seen["midpoint"] += 1
                continue
            with pytest.raises(ex.ExponentError, match="no feasible delta0; binding constraint: "):
                ex.select_delta0(cfg, gammas)
            seen["raised"] += 1
            continue
        got = ex.select_delta0(cfg, gammas)
        assert (got.delta0.hex(), [b.hex() for b in got.beta_ell]) == (want[0].hex(), [b.hex() for b in want[1]]), cfg
        seen["m"].add(cfg.m)
        seen["unit beta_src"] += cfg.beta_src == 1.0
        seen["finite t"] += any(math.isfinite(x) for ts in cfg.t.values() for x in ts)
    assert seen["raised"] >= 50 and seen["m"] == {1, 2, 3}, seen
    assert seen["unit beta_src"] >= 20 and seen["finite t"] >= 50 and seen["midpoint"] >= 20, seen


@pytest.mark.parametrize("n,size", [(1, 96), (2, 48), (3, 16)])
@pytest.mark.parametrize("mode", ["uncentered", "centered"])
def test_mixed_stack_drops_rows_per_field(convolved, n, size, mode):
    """A psi-masked field near a corner, whose running max stays small
    far from its support, beside a smooth positive field whose least value
    is close to its mean: at the largest radii the smooth row sits out
    while the masked row is convolved, and both stay bitwise."""
    grid = g.create_grid(g.box([-1.0] * n, [1.0] * n), size, lambda p: 1.0 + 0.1 * np.cos(2.0 * p[:, 0]))
    psi = tr.smooth_cutoff(grid, [0.7] * n, 0.1, 0.25).scalar()
    stack = np.stack([psi * samples(n, size, seed=n)["rough"], grid.scalar()])
    h = 2.0 / size
    fast = mx._maximal_once(stack, n, h, [0.0, 0.0], mode)
    seen = [rows_of(sub, stack) for sub in convolved]
    assert {0, 1} in seen and {0} in seen, seen
    for k in range(2):
        assert fast[k].tobytes() == per_field_maximal_once(stack[k], n, h, 0.0, mode).tobytes(), k


@pytest.mark.parametrize("n,size,padded", [(1, 37, 108), (2, 37, 135)])
@pytest.mark.parametrize("mode", ["uncentered", "centered"])
def test_held_spectrum_follows_the_rows(monkeypatch, convolved, n, size, padded, mode):
    """With every radius padded to one shape, each call may reuse the
    spectrum the last one held; a radius whose rows differ must not."""
    monkeypatch.setattr(mx, "_next_fast_len", lambda length: padded)
    h = 2.0 / size
    pool = stack_pool(n, size)
    betas = [0.0, 0.5, n / 2, 0.0, 0.25, 0.5, 0.0]
    fast = mx._maximal_once(np.stack(pool), n, h, betas, mode)
    assert len({len(sub) for sub in convolved}) > 1  # the rows change from radius to radius
    for k, (vals, beta) in enumerate(zip(pool, betas)):
        assert fast[k].tobytes() == per_field_maximal_once(vals, n, h, beta, mode).tobytes(), k


def adversarial_stacks(n, size):
    """A spike at the lattice centre, a constant, 1e6 * rough beside
    1e-9 * rough, and all of the mass in one corner."""
    shape = (size,) * n
    spike, corner = np.zeros(shape), np.zeros(shape)
    spike[(size // 2,) * n] = 1.0
    corner[(slice(0, 3),) * n] = 1.0
    rough = samples(n, size, seed=size)["rough"]
    return [spike[None], np.full(shape, 0.7)[None], np.stack([1e6 * rough, 1e-9 * rough]), corner[None]]


@pytest.mark.parametrize("n,size", [(1, 256), (2, 128), (2, 256), (3, 32)])
def test_fft_disc_sums_stay_under_the_mass_bound(n, size):
    """Every disc sum the FFT computes is at most the row's sum times
    1 + eps/100, so eps = ``_MASS_SLACK`` leaves a hundredfold margin."""
    dims = (size,) * n
    for stack in adversarial_stacks(n, size):
        mass = stack.reshape(len(stack), -1).sum(axis=1)
        for r in mx._radii_cells(dims):
            if r and not mx._covers(dims, r):
                peak = mx._fft_same(stack, *disc_spectrum(dims, r)).reshape(len(stack), -1).max(axis=1)
                assert np.all(peak <= mass * (1.0 + mx._MASS_SLACK / 100)), (r, peak / mass)


def test_non_finite_rows_are_never_dropped(convolved):
    """An all-inf row (whose bound inf is <= its least value inf) and a row
    with a NaN are convolved at every radius; a zero row beside them at none."""
    size = 32
    rough = samples(2, size, seed=2)["rough"]
    with_nan = rough.copy()
    with_nan[3, 5] = np.nan
    stack = np.stack([np.full((size, size), np.inf), with_nan, np.zeros((size, size)), rough])
    with np.errstate(all="ignore"):
        fast = mx._maximal_once(stack, 2, 2.0 / size, [0.0, 0.5, 0.0, 0.0], "uncentered")
        want = [per_field_maximal_once(row, 2, 2.0 / size, beta, "uncentered")
                for row, beta in zip(stack, [0.0, 0.5, 0.0, 0.0])]
    seen = [rows_of(sub, stack) for sub in convolved]
    assert len(seen) == convolving_radii((size, size))
    assert all({0, 1} <= rows and 2 not in rows for rows in seen)
    assert any(3 not in rows for rows in seen)
    for k in range(len(stack)):
        assert np.array_equal(fast[k], want[k], equal_nan=True), k


# ---------------------------------------------------------------------------
# infimal convolution
# ---------------------------------------------------------------------------


def weight_fields(n, size):
    region = g.box([-1.0] * n, [1.0] * n)
    rough = g.create_grid(region, size, fourier_sampler(np.random.default_rng(7 * n), n))
    power = g.create_grid(region, size, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
    return {"rough": rough.with_values(np.abs(rough.values)), "power": power}


def point_sets(a):
    full = np.ones(a.dims, dtype=bool)
    ball = g.ball([0.1] * a.n, 0.7).mask_for(a)
    sub = np.zeros(a.dims, dtype=bool)
    sub[tuple(slice(None, None, 2) for _ in range(a.n))] = True
    centers, vals = a.cell_centers(), a.scalar()
    return {name: (centers[m], vals[m]) for name, m in (("full", full), ("ball", ball), ("stride2", sub))}


@pytest.mark.parametrize("n,size", [(1, 120), (2, 40), (3, 10)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_min_convolution_matches_dense_oracle(n, size, alpha):
    for wname, a in weight_fields(n, size).items():
        for pname, (pts, vals) in point_sets(a).items():
            fast = wt._min_convolution(pts, pts, vals, alpha)
            slow = dense_min_convolution(pts, pts, vals, alpha)
            assert fast.tobytes() == slow.tobytes(), (wname, pname)


def test_min_convolution_between_point_sets():
    a = weight_fields(2, 40)["rough"]
    sets = point_sets(a)
    (px, _), (py, vy) = sets["ball"], sets["stride2"]
    fast = wt._min_convolution(px, py, vy, 1.5)
    assert fast.tobytes() == dense_min_convolution(px, py, vy, 1.5).tobytes()


def test_min_convolution_prunes_tile_pairs(monkeypatch):
    a = weight_fields(2, 96)["power"]
    pts, vals = a.cell_centers().reshape(-1, 2), a.scalar().reshape(-1)
    evaluated = []
    pair_values = wt._pair_values

    def counting(*args):
        out = pair_values(*args)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(wt, "_pair_values", counting)
    wt._min_convolution(pts, pts, vals, 0.5)
    assert len(wt._tiles(pts)[1]) - 1 == (96 // 8) ** 2
    # padding slots count as evaluated; the dense sweep takes every pair
    assert 0 < sum(evaluated) < len(pts) ** 2 // 10


@pytest.mark.parametrize("n,size", [(2, 64), (3, 16)])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_min_convolution_matches_dense_oracle_at_bench_shapes(n, size, alpha):
    # the field bench's weights: |a seeded Fourier sum| on [-1, 1]^n
    a = weight_fields(n, size)["rough"]
    pts, vals = a.cell_centers().reshape(-1, n), a.scalar().reshape(-1)
    fast = wt._min_convolution(pts, pts, vals, alpha)
    assert fast.tobytes() == dense_min_convolution(pts, pts, vals, alpha).tobytes()


def test_min_convolution_rounds_span_chunks(monkeypatch):
    # 7 points per step: every round on a 40^2 lattice splits, the last chunk short
    monkeypatch.setattr(wt, "_ROUND_PAIRS", 7 * 64)
    blocks = []
    pair_values = wt._pair_values
    monkeypatch.setattr(wt, "_pair_values", lambda px, *rest: blocks.append(len(px)) or pair_values(px, *rest))
    a = weight_fields(2, 40)["rough"]
    for pname, (pts, vals) in point_sets(a).items():
        fast = wt._min_convolution(pts, pts, vals, 1.5)
        assert fast.tobytes() == dense_min_convolution(pts, pts, vals, 1.5).tobytes(), pname
    assert max(blocks) == 7 and min(blocks) < 7


def test_min_convolution_negative_zero_samples():
    a = weight_fields(2, 40)["power"]
    pts, vals = a.cell_centers().reshape(-1, 2), a.scalar().reshape(-1)
    vals = np.where(vals < 0.5, -0.0, vals)
    assert np.signbit(vals).sum() > 1
    for alpha in (0.5, 2.0):
        fast = wt._min_convolution(pts, pts, vals, alpha)
        assert fast.tobytes() == dense_min_convolution(pts, pts, vals, alpha).tobytes()


def test_min_convolution_rounds_bound_their_temporaries(monkeypatch):
    sizes, in_round = [], []
    power, pair_values = wt._alpha_power_of_sq, wt._pair_values

    def recording_power(d2, alpha):
        if in_round:
            sizes.append(np.size(d2))
        return power(d2, alpha)

    def round_pair_values(*args):
        in_round.append(1)
        try:
            return pair_values(*args)
        finally:
            in_round.pop()

    monkeypatch.setattr(wt, "_alpha_power_of_sq", recording_power)
    monkeypatch.setattr(wt, "_pair_values", round_pair_values)
    a = weight_fields(2, 96)["power"]
    wt._min_convolution(a.cell_centers().reshape(-1, 2), a.cell_centers().reshape(-1, 2), a.scalar().reshape(-1), 0.5)
    assert 0 < max(sizes) <= wt._ROUND_PAIRS


# ---------------------------------------------------------------------------
# per-ball geometry: the ball window against the full grid
# ---------------------------------------------------------------------------


def full_ball_mask(grid, c, r):
    d2 = np.sum((grid.cell_centers() - np.asarray(c, dtype=float)) ** 2, axis=-1)
    return d2 < float(r) ** 2


def ball_cells(grid, c, *radii):
    """The cells of the open balls B_r(c), one mask per radius, on one
    window, one ball at a time: the slices of the lattice window around the
    largest ball (``grid._window_bounds``), its cell centers, their squared
    distances d2 from ``c`` and one mask ``d2 < r**2`` per radius."""
    c = np.asarray(c, dtype=float)
    if c.shape != (grid.n,):  # as ``centers - c`` broadcasts, or raise as it does
        c = np.broadcast_to(c, (grid.n,))
    lo, hi = g._window_bounds(grid, c[None], [max(radii)])
    slices = tuple(slice(a, b) for a, b in zip(lo[0].tolist(), hi[0].tolist()))
    centers = g._window_centers(grid, slices)
    d2 = np.sum((centers - c) ** 2, axis=-1)
    return slices, centers, d2, tuple(d2 < float(r) ** 2 for r in radii)


def lattice(n, size):
    return g.create_grid(g.box([-1.0] * n, [1.0] * n), size, lambda p: p[:, 0])


def ball_cases(grid, rng):
    """Centers on and off the lattice, on the box wall and outside the box;
    radii 0, below h/2, generic, covering the box, and within rounding of a
    cell center."""
    n, h = grid.n, grid.spacing
    cells = grid.cell_centers().reshape(-1, n)
    out = []
    for _ in range(60):
        c = cells[rng.integers(len(cells))] if rng.random() < 0.5 else rng.uniform(-1.6, 1.6, n)
        for r in (0.3 * h, 0.5 * h, rng.uniform(h, 1.5), 2.5 * math.sqrt(n), 1e6):
            out.append((c, float(r)))
        r = float(np.sqrt(np.sum((cells[rng.integers(len(cells))] - c) ** 2)))
        out += [(c, r), (c, float(np.nextafter(r, 0.0))), (c, float(np.nextafter(r, np.inf)))]
    out += [(np.full(n, 5.0), 1.0), (np.full(n, -5.0), 4.5), (np.full(n, 0.1), 0.0)]
    wall = cells[-1] + np.eye(n)[0] * h / 2  # on the box's face, half a cell from a cell center
    out += [(cells[0], 0.0), (wall, 0.6 * h), (wall, 0.3 * h), (np.full(n, -1.0), 3.0)]
    return out


def radii_cases(cases):
    """Each case of ``ball_cases`` alone, then 1, 2 and 3 radii at once per
    drawn center (its eight radii: sub-cell, half-cell, generic, box-sized,
    huge, tie, below and above the tie), unsorted."""
    out = [(c, (r,)) for c, r in cases]
    for k in range(0, 60 * 8, 8):
        c, radii = cases[k][0], [r for _, r in cases[k:k + 8]]
        out += [(c, tuple(radii[i] for i in pick)) for pick in ((6,), (5, 2), (1, 7, 4))]
    return out


@pytest.mark.parametrize("n,size", [(1, 57), (2, 33), (3, 11)])
def test_ball_mask_matches_full_grid(n, size):
    grid = lattice(n, size)
    for c, radii in radii_cases(ball_cases(grid, np.random.default_rng(n))):
        if len(radii) == 1:
            r = radii[0]
            assert g.ball(c, r).mask_for(grid).tobytes() == full_ball_mask(grid, c, r).tobytes(), (c, r)
            continue
        slices, _centers, _d2, masks = ball_cells(grid, c, *radii)
        assert len(masks) == len(radii)
        for r, inside in zip(radii, masks):
            assert inside.tobytes() == full_ball_mask(grid, c, r)[slices].tobytes(), (c, radii, r)


def test_ball_center_of_another_dimension_raises():
    grid = lattice(2, 8)
    with pytest.raises(ValueError):
        g.ball([0.0, 0.0, 0.0], 0.5).mask_for(grid)
    # a center of one coordinate broadcasts, as ``centers - c`` would
    assert g.ball([0.25], 0.5).mask_for(grid).tobytes() == full_ball_mask(grid, [0.25], 0.5).tobytes()


@pytest.mark.parametrize("n,size", [(1, 57), (2, 33), (3, 11)])
def test_window_holds_every_cell_of_the_ball(n, size):
    grid = lattice(n, size)
    everywhere = grid.cell_centers()
    for c, radii in radii_cases(ball_cases(grid, np.random.default_rng(10 + n))):
        slices, centers, d2, masks = ball_cells(grid, c, *radii)
        assert centers.tobytes() == everywhere[slices].tobytes()
        assert d2.tobytes() == np.sum((everywhere - c) ** 2, axis=-1)[slices].tobytes()
        in_window = np.zeros(grid.dims, dtype=bool)
        in_window[slices] = True
        for r, inside in zip(radii, masks):
            full = full_ball_mask(grid, c, r)
            assert not np.any(full & ~in_window), (c, radii, r)
            assert inside.tobytes() == full[slices].tobytes(), (c, radii, r)


def ndimage_distance_to_complement(grid, mask):
    """``distance_to_complement`` on ``scipy.ndimage``'s distance transform."""
    d_cells = np.full(grid.dims, np.inf) if mask.all() else distance_transform_edt(mask)
    centers = grid.cell_centers()
    wall = np.minimum(np.min(centers - grid.box_lo, axis=-1), np.min(grid.box_hi - centers, axis=-1))
    return np.minimum(d_cells * grid.spacing, wall)


def edt_masks(grid, rng):
    """All False, all True, one True cell, one False cell (so that most
    lines hold no False cell), random cells at three densities and, from
    two dimensions up, the suites' masks."""
    shape = grid.dims
    one = np.zeros(shape, dtype=bool)
    one[tuple(rng.integers(d) for d in shape)] = True
    masks = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool), one, ~one]
    masks += [rng.random(shape) < p for p in (0.3, 0.7, 0.95)]
    return masks + (suites.random_masks(grid, 2, seed=grid.n) if grid.n > 1 else [])


@pytest.mark.parametrize("n,size", [(1, 2), (1, 97), (2, 2), (2, 33), (2, 80), (3, 13), (3, 24)])
def test_distance_transform_matches_ndimage(n, size):
    grid = lattice(n, size)
    for mask in edt_masks(grid, np.random.default_rng(size + n)):
        if not mask.all():
            got = np.sqrt(wh._squared_edt(mask))
            assert got.tobytes() == distance_transform_edt(mask).tobytes()
        want = ndimage_distance_to_complement(grid, mask)
        assert wh.distance_to_complement(grid, mask).tobytes() == want.tobytes()


def kd_tree_pairs(points, reach):
    """The k-d tree's candidate pairs, at the same relative margin."""
    p = cKDTree(points).query_pairs(reach * (1 + 1e-9), output_type="ndarray")
    return p[:, 0], p[:, 1]


def pairs_within_exactly(points, a, b, reach):
    """The candidate pairs an exact test keeps: distance at most ``reach``."""
    keep = np.sum((points[a] - points[b]) ** 2, axis=1) <= reach**2
    return set(zip(a[keep].tolist(), b[keep].tolist()))


def pair_cases(n, rng):
    """A Whitney cover's centers at reaches on and between lattice
    distances, random points with repeats, one point, and reaches of zero
    and past the extent."""
    grid, mask = whitney_regime({1: "1d-600", 2: "2d-160", 3: "3d-24"}[n])
    cov = wh.cover(grid, mask, R=1.0)
    h, rmax = grid.spacing, float(cov.radii.max())
    scattered = rng.uniform(-1.0, 1.0, size=(400, n))
    scattered = np.concatenate([scattered, scattered[:40]])
    cases = [(cov.centers, reach) for reach in (rmax / 2, 1.5 * rmax, 2 * rmax, h, 2 * h, 0.0)]
    cases += [(scattered, reach) for reach in (0.0, 0.05, 0.3, 5.0)]
    cases += [(scattered[:1], 0.1)]
    return cases


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairs_within_matches_kd_tree(n):
    for points, reach in pair_cases(n, np.random.default_rng(n)):
        a, b = wh._pairs_within(points, reach)
        ta, tb = kd_tree_pairs(points, reach)
        got = pairs_within_exactly(points, a, b, reach)
        assert got == pairs_within_exactly(points, ta, tb, reach), (len(points), reach)
        assert len(set(zip(a.tolist(), b.tolist()))) == len(a)  # each pair once
        assert np.all(a < b)


def greedy_cover(grid, mask, R):
    """Whitney cover by the per-candidate greedy: each candidate is tested
    against every kept ball, and each kept ball updates the covered cells.
    Also returns how many candidates were rejected and whether selection
    stopped with candidates left."""
    d = wh.distance_to_complement(grid, mask)
    flat_idx = np.flatnonzero(mask.reshape(-1))
    d_flat = d.reshape(-1)[flat_idx]
    pts = grid.cell_centers().reshape(-1, grid.n)[flat_idx]
    order = np.lexsort((flat_idx, -d_flat))
    kc = np.empty((len(flat_idx), grid.n))
    kr = np.empty(len(flat_idx))
    k = rejected = 0
    covered = np.zeros(len(flat_idx), dtype=bool)
    left = len(flat_idx)
    for oi in order:
        if not left:
            return kc[:k], kr[:k], rejected, True
        x = pts[oi]
        r = min(d_flat[oi] / 12.0, float(R))
        if r <= 0:
            continue
        if k and np.any(np.linalg.norm(kc[:k] - x, axis=1) < (r + kr[:k]) / 4.0):
            rejected += 1
            continue
        kc[k], kr[k] = x, r
        k += 1
        newly = (np.linalg.norm(pts - x, axis=1) < r / 2.0) & ~covered
        left -= int(np.count_nonzero(newly))
        covered |= newly
    return kc[:k], kr[:k], rejected, False


def per_ball_neighbor_sets(cov):
    tree = cKDTree(cov.centers)
    rmax = float(cov.radii.max())
    out = []
    for i in range(len(cov)):
        cand = np.asarray(sorted(tree.query_ball_point(cov.centers[i], 0.75 * (cov.radii[i] + rmax))), dtype=int)
        dist = np.linalg.norm(cov.centers[cand] - cov.centers[i], axis=1)
        out.append(cand[dist < 0.75 * (cov.radii[i] + cov.radii[cand])])
    return out


def per_ball_w1(cov, grid, mask):
    """W1 ball by ball: each half-ball marks the mask cells it holds."""
    pts_in = grid.cell_centers().reshape(-1, grid.n)[mask.reshape(-1)]
    covered = np.zeros(len(pts_in), dtype=bool)
    for i in range(len(cov)):
        covered |= np.sum((pts_in - cov.centers[i]) ** 2, axis=1) < (cov.radii[i] / 2.0) ** 2
    return bool(covered.all())


def per_ball_checks(cov, grid, mask):
    """W1, W3 (on the 16r window), W4 and W5 ball by ball."""
    out = {"W1": per_ball_w1(cov, grid, mask), "W3": True, "W4": True, "W5": True}
    lo, hi = grid.box_lo, grid.box_hi
    for c, r in zip(cov.centers, cov.radii):
        if np.any(c - 8 * r < lo) or np.any(c + 8 * r > hi):
            out["W3"] = False
            break
        slices, centers, _d2, _masks = ball_cells(grid, c, 16 * r)
        d2 = np.sum((centers - c) ** 2, axis=-1)
        outside = ~mask[slices]
        pokes_out = np.any(c - 16 * r < lo + grid.spacing / 2) or np.any(c + 16 * r > hi - grid.spacing / 2)
        if np.any(outside[d2 < (8 * r) ** 2]) or not (np.any(outside[d2 < (16 * r) ** 2]) or pokes_out):
            out["W3"] = False
            break
    tree = cKDTree(cov.centers)
    rmax = float(cov.radii.max())
    for i in range(len(cov)):
        cand = np.asarray(sorted(tree.query_ball_point(cov.centers[i], cov.radii[i] + rmax)), dtype=int)
        d = np.linalg.norm(cov.centers[cand] - cov.centers[i], axis=1)
        ratios = cov.radii[i] / cov.radii[cand[d < cov.radii[i] + cov.radii[cand]]]
        if np.any(ratios > 2 + 1e-12) or np.any(ratios < 0.5 - 1e-12):
            out["W4"] = False
    for i in range(len(cov)):
        cand = np.asarray(sorted(tree.query_ball_point(cov.centers[i], (cov.radii[i] + rmax) / 4.0)), dtype=int)
        cand = cand[cand != i]
        d = np.linalg.norm(cov.centers[cand] - cov.centers[i], axis=1)
        if np.any(d < (cov.radii[i] + cov.radii[cand]) / 4.0 - 1e-12):
            out["W5"] = False
    return out


def full_grid_w3(cov, grid, mask):
    centers_flat = grid.cell_centers().reshape(-1, grid.n)
    mask_flat = mask.reshape(-1)
    lo, hi = grid.box_lo, grid.box_hi
    for c, r in zip(cov.centers, cov.radii):
        if np.any(c - 8 * r < lo) or np.any(c + 8 * r > hi):
            return False
        d2 = np.sum((centers_flat - c) ** 2, axis=1)
        if np.any(~mask_flat[d2 < (8 * r) ** 2]):
            return False
        inside16 = d2 < (16 * r) ** 2
        pokes_out = np.any(c - 16 * r < lo + grid.spacing / 2) or np.any(c + 16 * r > hi - grid.spacing / 2)
        if not (np.any(~mask_flat[inside16]) or pokes_out):
            return False
    return True


def full_grid_fields(pou, grid):
    """Bump values on a bounding box of each 3/4-ball, cut out of the full grid."""
    centers = grid.cell_centers().reshape(-1, grid.n)
    denom = np.zeros(len(centers))
    cells, vals = [], []
    h = grid.spacing
    for i in range(len(pou.cover)):
        c, r = pou.cover.centers[i], 0.75 * pou.cover.radii[i]
        lo = np.maximum(np.floor((c - r - grid.origin) / h - 0.5).astype(int), 0)
        hi = np.minimum(np.ceil((c + r - grid.origin) / h - 0.5).astype(int) + 1, grid.dims)
        idx = np.indices(tuple(hi - lo)).reshape(grid.n, -1).T + lo
        flat = np.ravel_multi_index(idx.T, grid.dims)
        v = pou.bump(i, centers[flat])
        keep = v > 0
        cells.append(flat[keep])
        vals.append(v[keep])
        denom[flat[keep]] += v[keep]
    return cells, vals, denom


def whitney_masks(n, size):
    grid = g.create_grid(g.box([-0.5] * n, [0.5] * n), size, lambda p: p[:, 0])
    if n > 1:
        return grid, suites.random_masks(grid, 2, seed=n)
    # 2-D and 3-D masks this small give balls below a cell; in 1-D a long
    # interval gives balls spanning many cells
    x = grid.cell_centers()[..., 0]
    return grid, [np.abs(x) < 0.4, (np.abs(x) < 0.45) & (np.abs(x - 0.1) > 0.01)]


@pytest.mark.parametrize("n,size", [(1, 600), (2, 48), (3, 16)])
def test_whitney_matches_full_grid(n, size):
    grid, masks = whitney_masks(n, size)
    for mask in masks:
        cov = wh.cover(grid, mask, R=1.0)
        kc, kr, _, _ = greedy_cover(grid, mask, 1.0)
        assert cov.centers.tobytes() == kc.tobytes() and cov.radii.tobytes() == kr.tobytes()
        for scale in (1.0, 0.5, 2.0):  # W3 holds, 16B misses the complement, 8B leaves the mask
            scaled = wh.WhitneyCover(cov.centers, cov.radii * scale, cov.max_radius)
            assert wh.verify_cover(scaled, grid, mask)["W3"] == full_grid_w3(scaled, grid, mask)
        pou = wh.PartitionOfUnity(cov)
        cells, vals, bounds, denom = pou._flat_fields(grid)
        cells, vals = wh._per_ball(cells, bounds), wh._per_ball(vals, bounds)
        want_cells, want_vals, want_denom = full_grid_fields(pou, grid)
        assert [a.tobytes() for a in cells] == [a.tobytes() for a in want_cells]
        assert [a.tobytes() for a in vals] == [a.tobytes() for a in want_vals]
        assert denom.tobytes() == want_denom.tobytes()
        assert full_grid_w3(cov, grid, mask)


def whitney_regime(name):
    if name == "2d-160":  # Vitali rejection and the early stop both fire
        grid = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 160, lambda p: p[:, 0])
        return grid, suites.random_masks(grid, 1, seed=0x5EED)[0]
    if name == "3d-24":
        grid = g.create_grid(g.box([-0.5] * 3, [0.5] * 3), 24, lambda p: p[:, 0])
        return grid, suites.random_masks(grid, 1, seed=1)[0]
    grid, masks = whitney_masks(1, 600)  # balls span many cells
    return grid, masks[1]


@pytest.mark.parametrize("name", ["2d-160", "1d-600", "3d-24"])
def test_whitney_matches_per_ball_loops(name):
    grid, mask = whitney_regime(name)
    cov = wh.cover(grid, mask, R=1.0)
    kc, kr, rejected, stopped = greedy_cover(grid, mask, 1.0)
    assert cov.centers.tobytes() == kc.tobytes() and cov.radii.tobytes() == kr.tobytes()
    # the greedy's stop never cuts the kept list short: the last candidate
    # lies in no other ball's half-ball, so only its own ball completes the cover
    assert not stopped
    if name == "2d-160":
        assert rejected > 0 and len(cov) < mask.sum()
    assert [a.tobytes() for a in cov.neighbors] == [a.tobytes() for a in per_ball_neighbor_sets(cov)]
    got = wh.verify_cover(cov, grid, mask)
    assert {key: got[key] for key in ("W1", "W3", "W4", "W5")} == per_ball_checks(cov, grid, mask)
    assert all(got[key] for key in ("W1", "W3", "W4", "W5"))
    pou = wh.PartitionOfUnity(cov)
    cells, vals, bounds, denom = pou._flat_fields(grid)
    cells, vals = wh._per_ball(cells, bounds), wh._per_ball(vals, bounds)
    want_cells, want_vals, want_denom = full_grid_fields(pou, grid)
    assert [a.tobytes() for a in cells] == [a.tobytes() for a in want_cells]
    assert [a.tobytes() for a in vals] == [a.tobytes() for a in want_vals]
    assert denom.tobytes() == want_denom.tobytes()


def test_w1_half_balls_spanning_cells_match_per_ball_loop():
    grid = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 96, lambda p: p[:, 0])
    mask = g.ball([0.0, 0.0], 0.4).mask_for(grid)
    cov = wh.cover(grid, mask, R=1.0)
    assert cov.radii.max() / 2.0 > grid.spacing  # the largest half-balls hold several cells
    sparse = wh.WhitneyCover(cov.centers[::2], cov.radii[::2], cov.max_radius)
    for case, holds in ((cov, True), (sparse, False)):
        assert wh.verify_cover(case, grid, mask)["W1"] is per_ball_w1(case, grid, mask) is holds


def test_cover_conflict_is_strict():
    # h = 1: the middle two cells of a 48-cell interval both lie at d = 24,
    # so r = 2 and their distance 1 equals (r + r) / 4 exactly: no conflict
    grid = g.create_grid(g.box([0.0], [128.0]), 128, lambda p: p[:, 0])
    mask = np.zeros(grid.dims, dtype=bool)
    mask[40:88] = True
    cov = wh.cover(grid, mask, R=1000.0)
    kc, kr, _, _ = greedy_cover(grid, mask, 1000.0)
    assert cov.centers.tobytes() == kc.tobytes() and cov.radii.tobytes() == kr.tobytes()
    assert cov.centers[:2, 0].tolist() == [63.5, 64.5] and cov.radii[:2].tolist() == [2.0, 2.0]


def tied_radius(d2, reach):
    """The largest float r with (reach * r)^2 <= d2: a cell at squared
    distance d2 lies just outside the open ball of radius reach * r."""
    r = math.sqrt(d2) / reach
    while (reach * r) ** 2 > d2:
        r = math.nextafter(r, 0.0)
    while (reach * math.nextafter(r, math.inf)) ** 2 <= d2:
        r = math.nextafter(r, math.inf)
    return r


@pytest.mark.parametrize("reach", [8, 16])
def test_w3_near_tie_takes_the_window_test(monkeypatch, reach):
    grid, mask = whitney_regime("2d-160")
    cov = wh.cover(grid, mask, R=1.0)
    outside = grid.cell_centers()[~mask]
    tie = np.array([tied_radius(float(np.sum((outside - c) ** 2, axis=1).min()), reach)
                    for c in cov.centers[::40]])
    gathered = []
    ball_rows = wh._ball_rows

    def recording(*args):
        for ids, rows in ball_rows(*args):
            gathered.extend(ids.tolist())
            yield ids, rows

    monkeypatch.setattr(wh, "_ball_rows", recording)
    outcomes = []
    for radii in (tie, np.nextafter(tie, np.inf)):  # the nearest complement cell on the sphere, then inside
        tied = wh.WhitneyCover(cov.centers[::40], radii, cov.max_radius)
        got = wh.verify_cover(tied, grid, mask)["W3"]
        assert got == per_ball_checks(tied, grid, mask)["W3"] == full_grid_w3(tied, grid, mask)
        outcomes.append(got)
    assert outcomes == ([True, False] if reach == 8 else [False, True])
    assert len(gathered) >= len(tie)
    # a ball whose 16B clearly misses the complement, ahead of the passing
    # tied balls: each gathered verdict must land on its own ball
    deep = int(np.argmax(cov.radii))
    passing = tie if reach == 8 else np.nextafter(tie, np.inf)
    mixed = wh.WhitneyCover(np.vstack([cov.centers[deep:deep + 1], cov.centers[::40]]),
                            np.concatenate([[grid.spacing / 4], passing]), cov.max_radius)
    assert not wh._w3_holds(mixed, grid, mask) and not full_grid_w3(mixed, grid, mask)


def test_w3_off_lattice_centers_match_full_grid():
    """A center off the cell centers is |c - x| from the center x of its
    nearest cell, and the transform at x bounds its distance to the
    complement only that closely: 8r just inside and just outside the
    nearest complement cell, and a fraction of a cell either side."""
    grid, mask = whitney_regime("2d-160")
    cov = wh.cover(grid, mask, R=1.0)
    h, outside = grid.spacing, grid.cell_centers()[~mask]
    rng = np.random.default_rng(5)
    outcomes = []
    for c in cov.centers[::60] + rng.uniform(-0.5, 0.5, size=(len(cov.centers[::60]), 2)) * h:
        t = float(np.sqrt(np.sum((outside - c) ** 2, axis=1).min()))
        for r8 in (t * (1 - 1e-3), t * (1 + 1e-3), t - 0.3 * h, t + 0.3 * h):
            one = wh.WhitneyCover(c[None], np.array([r8 / 8]), cov.max_radius)
            got = wh._w3_holds(one, grid, mask)
            assert got == full_grid_w3(one, grid, mask), (c, r8)
            outcomes.append(got)
    assert True in outcomes and False in outcomes


def two_balls(r1, r2, gap):
    return wh.WhitneyCover(np.array([[0.0, 0.0], [gap, 0.0]]), np.array([r1, r2]), 1.0)


@pytest.mark.parametrize("r1,r2,gap,w4,w5", [
    (0.03, 0.09, 0.1, False, True),  # radius ratio 3
    (0.09, 0.03, 0.1, False, True),
    (0.04, 0.04 * (2 + 2e-12), 0.1, False, True),  # ratio past 2 + 1e-12 only one way round
    (0.04 * (2 + 2e-12), 0.04, 0.1, False, True),
    (0.04, 0.08, 0.1, True, True),
    (0.04, 0.04 * (2 + 5e-13), 0.1, True, True),  # within the 1e-12 tolerance
    (0.05, 0.05, 0.01, True, False),  # overlapping quarter-balls
    (0.05, 0.05, 0.025 - 5e-13, True, True),  # overlap within the 1e-12 tolerance
    (0.05, 0.05, 0.2, True, True),
])
def test_w4_w5_match_per_ball_loops(r1, r2, gap, w4, w5):
    grid = lattice(2, 33)
    mask = np.ones(grid.dims, dtype=bool)
    cov = two_balls(r1, r2, gap)
    got = wh.verify_cover(cov, grid, mask)
    want = per_ball_checks(cov, grid, mask)
    assert (got["W4"], got["W5"]) == (want["W4"], want["W5"]) == (w4, w5)
    assert got["W1"] == want["W1"] and got["W3"] == want["W3"]


def tree_psi_values(pou, i, points):
    """psi_i at arbitrary points, its normalizer summed ball by ball over
    every ball a k-d tree finds within 3/4 of the largest radius."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    num = pou.bump(i, pts)
    den = np.ones(len(pts))
    active = num > 0
    if active.any():
        act = pts[active]
        near = cKDTree(pou.cover.centers).query_ball_point(act, 0.75 * float(pou.cover.radii.max()))
        touching = {}
        for row, idxs in enumerate(near):
            for j in idxs:
                touching.setdefault(int(j), []).append(row)
        sub = np.zeros(len(act))
        for j, rows in sorted(touching.items()):
            rows = np.asarray(rows, dtype=int)
            sub[rows] += pou.bump(j, act[rows])
        den[active] = sub
    return np.where(num > 0, num / den, 0.0)


def per_offset_pou_bound(pou, m):
    """(P3) with one ``psi_values`` call per stencil offset, as the report
    ran before it batched every offset of a ball into one call."""
    cov = pou.cover
    n = cov.centers.shape[1]
    worst = {ell: 0.0 for ell in range(m + 1)}
    for i in range(0, len(cov), max(1, len(cov) // 64)):
        r = cov.radii[i]
        ticks = np.linspace(-0.6 * r, 0.6 * r, 4)
        mesh = np.meshgrid(*([ticks] * n), indexing="ij")
        pts = np.stack([mm.reshape(-1) for mm in mesh], axis=-1) + cov.centers[i]
        for ell in range(m + 1):
            sq = np.zeros(len(pts))
            for sig in g.multi_indices(n, ell):
                diff = np.zeros(len(pts))
                for off, w in wh._fd_stencil(sig, n, r / 32.0):
                    diff += w * pou.psi_values(i, pts + off)
                sq += diff**2
            worst[ell] = max(worst[ell], float(np.sqrt(sq).max()) * r**ell)
    return worst


def overlapping_covers(n):
    if n < 3:
        grid, masks = whitney_masks(n, 600 if n == 1 else 48)
        return [wh.cover(grid, mask, R=1.0) for mask in masks]
    # below 24 cells per axis the 3-D bumps barely or never overlap
    grid = g.create_grid(g.box([-0.5] * 3, [0.5] * 3), 24, lambda p: p[:, 0])
    return [wh.cover(grid, np.abs(grid.cell_centers()).max(axis=-1) < 0.4, R=1.0)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_psi_values_match_tree_normalizer(monkeypatch, n):
    rng = np.random.default_rng(n)
    for cov in overlapping_covers(n):
        # a cover built directly carries its neighbour sets
        direct = wh.WhitneyCover(cov.centers, cov.radii, cov.max_radius)
        assert [a.tobytes() for a in direct.neighbors] == [a.tobytes() for a in wh.neighbor_sets(cov)]
        pou = wh.PartitionOfUnity(direct)
        shared = 0
        crowded = np.argsort([-len(a) for a in cov.neighbors], kind="stable")[:24]
        for i in crowded.tolist():  # the balls with the most neighbours
            c, r = cov.centers[i], cov.radii[i]
            # random points, some outside the 3/4-ball, and points near the
            # overlap with each neighbour
            js = cov.neighbors[i]
            towards = np.repeat(c + (cov.centers[js] - c) * (r / (r + cov.radii[js]))[:, None], 8, axis=0)
            pts = np.concatenate([c + rng.uniform(-0.8 * r, 0.8 * r, size=(32, n)),
                                  towards + rng.uniform(-0.1 * r, 0.1 * r, size=towards.shape)])
            got, want = pou.psi_values(i, pts), tree_psi_values(pou, i, pts)
            assert got.tobytes() == want.tobytes()
            shared += int(np.count_nonzero((want > 0) & (want < 1)))
        assert shared > 0  # points where several bumps overlap
        got = wh.pou_derivative_bound_report(pou, 1)
        assert got == per_offset_pou_bound(pou, 1)
        with monkeypatch.context() as mp_:
            mp_.setattr(wh.PartitionOfUnity, "psi_values", tree_psi_values)
            want = wh.pou_derivative_bound_report(pou, 1)
        assert got == want


def scalar_layer_cake(h, r, nodes, sample_points=64, refine_steps=50):
    """The level integral summed one node interval at a time."""
    sel = h.scalar().reshape(-1)
    if r < 0:
        sel = sel[sel > 0]
    pts = np.sort(sel)[::max(1, sel.size // sample_points)]
    top = float(sel.max())
    mu = np.geomspace(top * 1e-8, top * (1 + 1e-9), nodes)

    def seg(a, b):
        return abs(b**r - a**r) if a < b else 0.0

    worst = 0.0
    for x in pts:
        ind = x > mu if r > 0 else x <= mu
        if r > 0:
            val = mu[0] ** r if ind[0] else 0.0
        else:
            val = top**r if ind[-1] else 0.0
        flip = None
        for j in range(len(mu) - 1):
            if ind[j] and ind[j + 1]:
                val += seg(mu[j], mu[j + 1])
            elif ind[j] != ind[j + 1]:
                flip = (mu[j], mu[j + 1])
        if flip is not None:
            lo, hi = flip
            for _ in range(refine_steps):
                mid = 0.5 * (lo + hi)
                if ((x > mid) if r > 0 else (x <= mid)) == ((x > lo) if r > 0 else (x <= lo)):
                    lo = mid
                else:
                    hi = mid
            val += seg(flip[0], lo) if r > 0 else seg(hi, flip[1])
        worst = max(worst, abs(val - x**r) / abs(x**r))
    return worst


@pytest.mark.parametrize("r", [2.0, 1.0, 0.5, -0.5, -2.0])
def test_layer_cake_matches_scalar_loop(r):
    for seed in range(3):
        f = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 24, fourier_sampler(np.random.default_rng(seed), 2))
        f = f.with_values(np.abs(f.values) + 0.1 * seed)  # seed 0 keeps zeros, which r < 0 drops
        got = ge.layer_cake_check(f, r, nodes=2000)
        assert float(got).hex() == float(scalar_layer_cake(f, r, nodes=2000)).hex()


@pytest.fixture(scope="module")
def scan_inputs():
    b = g.box([-0.5, -0.5], [0.5, 0.5])
    u = g.create_grid(b, 48, fourier_sampler(np.random.default_rng(3), 2))
    a = wt.regularize(g.create_grid(b, 48, lambda p: np.linalg.norm(p, axis=1) ** 0.5), 0.5, diverging=False)
    cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)
    return u, wt.Weight(a=a, alpha=0.5), cfg, ex.derive(cfg), g.ball([0.0, 0.0], 0.48)


def full_grid_scans(u, family, Hm, F, delta, dhat):
    """The energy walk's terms per ball of ``family``, from every cell:
    (lhs, half, F, low) in the walk's order."""
    Hm_flat, F_flat = Hm.scalar().reshape(-1), F.scalar().reshape(-1)
    centers = u.cell_centers().reshape(-1, u.n)
    terms = []
    for c, R in zip(*family):
        d2 = np.sum((centers - c) ** 2, axis=1)
        in1, in3 = d2 < R**2, d2 < (3 * R) ** 2
        terms.append((float((Hm_flat[in1] ** delta).mean()), 0.5 * float((Hm_flat[in3] ** delta).mean()),
                      float((F_flat[in3] ** delta).mean()), float((Hm_flat[in3] ** dhat).mean()) ** (delta / dhat)))
    return terms


def scan_constant(terms):
    """The reverse-Hoelder reduction of per-ball terms, one ball at a time."""
    rh = 0.0
    for k, (lhs, half, F, low) in enumerate(terms):
        r = max(0.0, lhs - half) / (low + F) if low + F > 0 else 0.0
        rh = r if k == 0 else max(rh, r)
    return rh


def test_scans_match_full_grid(scan_inputs):
    u, weight, cfg, derived, omega = scan_inputs
    delta = tr.scan_delta(derived.delta0)
    dhat = hn.delta_hat(cfg.n, cfg.p, cfg.q, cfg.alpha)
    F = tr.global_majorant(u, weight, cfg, derived, omega.mask_for(u))
    Hm = wt.double_phase_field(g.derivative_norm(u, cfg.m), weight, derived, cfg.q, cfg.m)
    family = ge._ball_pair_family(u, omega, 0.1)
    want = full_grid_scans(u, family, Hm, F, delta, dhat)
    got = hn._energy_walk(u, Hm.scalar(), F.scalar(), family, delta, dhat)
    names = ("lhs", "half", "F", "low")
    assert len(want) > 4
    for i, name in enumerate(names):
        assert got[name].dtype == np.float64 and got[name].tobytes() == np.array([w[i] for w in want]).tobytes()
    rh = hn.energy_scans(u, weight, cfg, derived, omega, R0=0.1)
    assert rh["constant"] == scan_constant(want)
    assert rh["f1"].values.tobytes() == (Hm.scalar() ** delta)[..., None].tobytes()
    assert rh["f2"].values.tobytes() == (F.scalar() ** delta)[..., None].tobytes()


def per_index_deviation_norm(P, pts, ell, rows):
    """|D^l u - D^l P| at the points, one multi-index at a time, as the
    oscillation report wrote it: past P's degree, D^l P is the literal 0."""
    sq = np.zeros(len(pts))
    for sig in g.multi_indices(P.n, ell):
        dP = P.differentiate(sig).evaluate(pts) if ell < P.m else 0.0
        sq += np.sum((rows[sig] - dP) ** 2, axis=-1)
    return np.sqrt(sq)


@pytest.mark.parametrize("n,size", [(2, 24), (3, 12)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_deviation_norm_matches_per_index_loop(n, size, m):
    rng = np.random.default_rng(10 * n + m)
    u = g.create_grid(g.box([-0.5] * n, [0.5] * n), size,
                      lambda p: np.stack([fourier_sampler(rng, n)(p) for _ in range(2)], axis=1))
    region = g.ball([0.05] * n, 0.4)
    eta = tr.smooth_cutoff(u, [0.05] * n, 0.2, 0.4)
    P = mp.fit(u, region, eta, m, [0.05] * n)
    mask = region.mask_for(u)
    pts = u.cell_centers()[mask]
    rows = {sig: df.values[mask] for ell in range(m + 1) for sig, df in g.derivative_array(u, ell).items()}
    for ell in range(m + 1):
        want = per_index_deviation_norm(P, pts, ell, rows)
        assert P.derivative_norm_at(pts, ell, rows).tobytes() == want.tobytes()
        if ell == m:
            assert want.any()  # |D^m u| itself, not a vacuous zero
        zero = {sig: np.zeros_like(rows[sig]) for sig in g.multi_indices(n, ell)}
        assert P.derivative_norm_at(pts, ell).tobytes() == per_index_deviation_norm(P, pts, ell, zero).tobytes()


def full_grid_mean(f, c, r, power=None):
    """``mean_over`` a ball from the full-grid mask."""
    m = full_ball_mask(f, c, r)
    vals = f.values if power is None else np.abs(f.values) ** float(power)
    return float((vals[m, :].sum(axis=0) * f.cell_volume / (float(m.sum()) * f.cell_volume))[0])


@pytest.mark.parametrize("mode", ["all", "conditional"])
def test_gehring_verify_matches_full_grid(scan_inputs, mode):
    """The walk's per-pair arrays and their reductions, on the scans' f1 and
    f2, and on f2 / 1000, where the premise needs a positive constant."""
    u, weight, cfg, derived, omega = scan_inputs
    rh = hn.energy_scans(u, weight, cfg, derived, omega, R0=0.1)
    cert = ge.gehring_constants(2, max(rh["constant"], 1e-6), rh["kappa"], 0.5, R0=0.1)
    f1 = rh["f1"]
    pairs = ge._ball_pair_family(f1, omega, cert.R0)
    eps = cert.eps_max
    for f2 in (rh["f2"], rh["f2"].with_values(rh["f2"].values / 1000)):
        want = []
        for c, R in zip(*pairs):
            a1, a3 = full_grid_mean(f1, c, R), full_grid_mean(f1, c, 3 * R)
            a3k = full_grid_mean(f1, c, 3 * R, cert.kappa) ** (1.0 / cert.kappa)
            g3 = full_grid_mean(f2, c, 3 * R)
            lhs_req = a1 - g3 if mode == "conditional" else a1 - g3 - cert.theta_rh * a3
            applicable = mode == "all" or a3 <= a1 + 1e-15
            A_req = max(0.0, lhs_req) / a3k if a3k > 0 else (0.0 if lhs_req <= 0 else math.inf)
            A_req = A_req if applicable else 0.0
            lhs_c = full_grid_mean(f1, c, R, 1.0 + eps) ** (1.0 / (1.0 + eps))
            rhs_c = a3 + full_grid_mean(f2, c, 3 * R, 1.0 + eps) ** (1.0 / (1.0 + eps))
            want.append((applicable, A_req, lhs_c / rhs_c))
        applicable, A_req, concl = ge._gehring_walk(f1, f2, cert, pairs, mode)
        assert A_req.dtype == concl.dtype == np.float64
        assert applicable.tolist() == [w[0] for w in want]
        assert A_req.tobytes() == np.array([w[1] for w in want]).tobytes()
        assert concl.tobytes() == np.array([w[2] for w in want]).tobytes()
        # the reductions, one pair at a time as a running count and maximum
        fails, A_max, concl_max = 0, 0.0, 0.0
        for applies, A, c in want:
            ok = not applies or A <= cert.A * (1 + 1e-9)
            fails += not ok
            A_max = max(A_max, A)
            if ok and applies:
                concl_max = max(concl_max, c)
        got = ge.gehring_verify(f1, f2, cert, pairs, mode=mode)
        assert (got["pairs"], got["premise_failures"]) == (len(pairs[1]), fails)
        assert (got["A_required_max"], got["conclusion_constant"]) == (A_max, concl_max)
    assert A_max > 0


def full_lattice_pair_family(grid, omega, R0):
    """``gehring._ball_pair_family`` with its centres picked out of every
    lattice cell by index, not read off the stride-8 sublattice."""
    omask = np.ones(grid.dims, dtype=bool) if omega is None else omega.mask_for(grid)
    on_stride = np.all(np.indices(grid.dims).reshape(grid.n, -1).T % 8 == 0, axis=1)
    cand = grid.cell_centers().reshape(-1, grid.n)[on_stride & omask.reshape(-1)]
    pairs = []
    for R in (R0, R0 / 2, R0 / 4):
        if R < 4 * grid.spacing:
            break
        pairs += [(c, R) for c in cand if np.all(c - 3 * R >= grid.box_lo) and np.all(c + 3 * R <= grid.box_hi)
                  and (omega is None or ball_inside(omega, c, 3 * R))]
    return pairs


@pytest.mark.parametrize("size", [37, 96, 128])
@pytest.mark.parametrize("omega", [g.ball([0.0, 0.0], 0.9), None], ids=["ball", "none"])
def test_ball_pair_family_matches_full_lattice(size, omega):
    u = g.create_grid(suites.unit_box(2), size, lambda p: p[:, 0])
    got = [(c.tobytes(), R) for c, R in zip(*ge._ball_pair_family(u, omega, 0.25))]
    assert got and got == [(c.tobytes(), R) for c, R in full_lattice_pair_family(u, omega, 0.25)]


def full_grid_admissibility(res):
    cfg, tc, grid = res.cfg, res.config, res.v_lambda
    centers = grid.cell_centers().reshape(-1, grid.n)
    darray = np.stack([g.partial_derivative(grid, sig).values.reshape(-1, grid.components)
                       for sig in g.multi_indices(grid.n, 0)], axis=1)
    on_stride = np.all(np.indices(grid.dims).reshape(grid.n, -1).T % 4 == 0, axis=1)
    test_centers = centers[full_ball_mask(grid, tc.center, 2.0 * tc.R).reshape(-1) & on_stride]
    worst = 0.0
    for r in [tc.R * 2.0**-j for j in range(1, 7)]:
        if r < 2 * grid.spacing:
            continue
        for z in test_centers:
            inside = np.sum((centers - z) ** 2, axis=1) < r**2
            if int(inside.sum()) < 2:
                continue
            block = darray[inside]
            lhs = float(np.sqrt(np.sum((block - block.mean(axis=0)) ** 2, axis=(1, 2))).mean()) / r
            worst = max(worst, lhs / (tc.R ** (cfg.m - 1) * res.lam ** (1.0 / cfg.p)))
    return worst


def test_admissibility_matches_full_grid():
    u, w, cfg, der, tc, data = suites.truncation_fixture(96)
    res = tr.truncate(u, w, cfg, der, tc, data=data)
    # |x|^2 puts the worst ratio on the largest test balls
    quadratic = res.v_lambda.with_values(np.sum(res.v_lambda.cell_centers() ** 2, axis=-1))
    assert cfg.m == 1
    for case in (res, dataclasses.replace(res, v_lambda=quadratic)):
        want = full_grid_admissibility(case)
        assert tr.admissibility_report(case) == {0: want} and want > 0


# ---------------------------------------------------------------------------
# ball-family scans: the batched rows against the per-ball loops
# ---------------------------------------------------------------------------


def ball_inside(omega, c, r):
    """Whether B_r(c) lies in the ball ``omega``, for one center."""
    return bool(np.linalg.norm(c - omega.center) + r <= omega.radius + 1e-12)


def loop_ball_pair_family(grid, omega, R0):
    """``gehring._ball_pair_family`` one candidate center at a time, as a
    list of (c, R) pairs."""
    every_8th = (slice(None, None, 8),) * grid.n
    omask = np.ones(grid.dims, dtype=bool) if omega is None else omega.mask_for(grid)
    cand = g._window_centers(grid, every_8th)[omask[every_8th]]
    lo, hi = grid.box_lo, grid.box_hi
    pairs = []
    R = R0
    for _ in range(3):
        if R < 4 * grid.spacing:
            break
        for c in cand:
            if np.all(c - 3 * R >= lo) and np.all(c + 3 * R <= hi):
                if omega is None or ball_inside(omega, c, 3 * R):
                    pairs.append((c, R))
        R /= 2.0
    return pairs


def loop_energy_walk(u, Hm_vals, F_vals, pairs, delta, dhat):
    """``harness._energy_walk`` one ball window at a time."""
    terms = []
    for c, R in pairs:
        slices, _centers, _d2, (in1, in3) = ball_cells(u, c, R, 3 * R)
        Hm_w = Hm_vals[slices]
        terms.append((
            float((Hm_w[in1] ** delta).mean()),
            0.5 * float((Hm_w[in3] ** delta).mean()),
            float((F_vals[slices][in3] ** delta).mean()),
            float((Hm_w[in3] ** dhat).mean()) ** (delta / dhat),
        ))
    lhs, half, F, low = np.array(terms).T
    return {"lhs": lhs, "half": half, "F": F, "low": low}


def window_mean(vals, inside, cell_volume, power=None):
    """``mean_over`` of the first component on the window cells ``inside``."""
    sel = vals[inside]
    if power is not None:
        sel = np.abs(sel) ** float(power)
    return float((sel.sum(axis=0) * cell_volume / (float(inside.sum()) * cell_volume))[0])


def loop_gehring_walk(f1, f2, cert, pairs, mode):
    """``gehring._gehring_walk`` one ball window at a time."""
    eps = cert.eps_max
    applicable, A_required, conclusion = [], [], []
    for c, R in pairs:
        slices, _centers, _d2, (in1, in3) = ball_cells(f1, c, R, 3 * R)
        w1, w2 = f1.values[slices], f2.values[slices]
        a1 = window_mean(w1, in1, f1.cell_volume)
        a3 = window_mean(w1, in3, f1.cell_volume)
        a3k = window_mean(w1, in3, f1.cell_volume, power=cert.kappa) ** (1.0 / cert.kappa)
        g3 = window_mean(w2, in3, f2.cell_volume)
        if mode == "conditional":
            applies = a3 <= a1 + 1e-15
            lhs_req = a1 - g3
        else:
            applies = True
            lhs_req = a1 - g3 - cert.theta_rh * a3
        applicable.append(applies)
        A_required.append(g._ratio(max(0.0, lhs_req), a3k) if applies else 0.0)
        lhs_c = window_mean(w1, in1, f1.cell_volume, power=1.0 + eps) ** (1.0 / (1.0 + eps))
        rhs_c = a3 + window_mean(w2, in3, f2.cell_volume, power=1.0 + eps) ** (1.0 / (1.0 + eps))
        conclusion.append(g._ratio(lhs_c, rhs_c))
    return np.array(applicable, dtype=bool), np.array(A_required), np.array(conclusion)


def loop_admissibility_report(res):
    """``truncation.admissibility_report`` one test ball window at a time."""
    cfg, tc = res.cfg, res.config
    grid = res.v_lambda
    every_4th = (slice(None, None, 4),) * grid.n
    test_centers = g._window_centers(grid, every_4th)[g.ball(tc.center, 2.0 * tc.R).mask_for(grid)[every_4th]]
    radii = [tc.R * 2.0**-j for j in range(1, 7)]
    darrays = {
        ell: np.stack([g.partial_derivative(grid, sig).values for sig in g.multi_indices(grid.n, ell)], axis=-2)
        for ell in range(cfg.m)
    }
    max_ratio = {ell: 0.0 for ell in range(cfg.m)}
    for r in radii:
        if r < 2 * grid.spacing:
            continue
        for z in test_centers:
            slices, _centers, _d2, (inside,) = ball_cells(grid, z, r)
            if int(inside.sum()) < 2:
                continue
            for ell in range(cfg.m):
                block = darrays[ell][slices][inside]
                mean = block.mean(axis=0)
                lhs = float(np.sqrt(np.sum((block - mean) ** 2, axis=(1, 2))).mean()) / r
                rhs = tc.R ** (cfg.m - ell - 1) * res.lam ** (1.0 / cfg.p)
                max_ratio[ell] = max(max_ratio[ell], lhs / rhs)
    return max_ratio


@pytest.fixture(params=[None, 1], ids=["default-chunks", "one-ball-chunks"])
def window_cap(request, monkeypatch):
    """``grid._WINDOW_CELLS`` as set, or 1: one ball per chunk and group."""
    if request.param is not None:
        monkeypatch.setattr(g, "_WINDOW_CELLS", request.param)
    return request.param


def positive_field(n, size, lo, seed):
    rng = np.random.default_rng(seed)
    f = g.create_grid(g.box([lo] * n, [-lo] * n), size, fourier_sampler(rng, n))
    return f.with_values(np.abs(f.values) + 0.05)


def family_case(name):
    """(f1, f2, omega, R0) of a scanned ball family: H_m and F of the
    ball_scans workload's 96^2 self_improve (seed 2), suite_gehring's 128^2
    fields on [-1, 1]^2 at R0 0.2, a 3-D family, and an omega=None family
    whose windows the lattice edge clamps."""
    if name == "ball_scans-96":
        rng = np.random.default_rng(2)
        fourier_sampler(rng, 2)  # the workload's Whitney mask draws first
        u = g.create_grid(suites.unit_box(2), 96, fourier_sampler(rng, 2))
        a = wt.regularize(suites.power_weight(96, 0.5), 0.5, diverging=False)
        cfg, weight, omega = suites.model_config(), wt.Weight(a=a, alpha=0.5), g.ball([0.0, 0.0], 0.48)
        der = ex.derive(cfg)
        F = tr.global_majorant(u, weight, cfg, der, omega.mask_for(u))
        Hm = wt.double_phase_field(g.derivative_norm(u, cfg.m), weight, der, cfg.q, cfg.m)
        return Hm, F, omega, 0.1
    if name == "suite_gehring-128":
        b = g.box([-1.0, -1.0], [1.0, 1.0])
        f1 = g.create_grid(b, 128, lambda p: (np.linalg.norm(p, axis=1) + 1e-12) ** -0.5)
        return f1, g.create_grid(b, 128, lambda p: np.full(len(p), 0.01)), g.ball([0.0, 0.0], 1.0), 0.2
    if name == "3-d":
        return positive_field(3, 48, -1.0, 30), positive_field(3, 48, -1.0, 31), g.ball([0.05, 0.0, 0.0], 1.2), 0.2
    # omega None, 96^2 on [-1, 1]^2: 3R = 32.30 h and 16.15 h, so balls hold
    # the cells along the box walls and their windows are clamped there
    return positive_field(2, 96, -1.0, 40), positive_field(2, 96, -1.0, 41), None, 0.2243


FAMILY_CASES = ["ball_scans-96", "suite_gehring-128", "3-d", "clamped"]


@pytest.fixture(scope="module", params=FAMILY_CASES)
def family(request):
    f1, f2, omega, R0 = family_case(request.param)
    pairs = loop_ball_pair_family(f1, omega, R0)
    assert len(pairs) > 4
    return f1, f2, omega, R0, pairs


def test_clamped_family_reaches_the_lattice_edge():
    f1, _f2, omega, R0 = family_case("clamped")
    centers, R = ge._ball_pair_family(f1, omega, R0)
    # at both radii, some B_3R holds cells of the lattice's first row
    on_wall = np.array([g.ball(c, 3 * r).mask_for(f1)[0].any() for c, r in zip(centers, R)])
    assert omega is None and set(R[on_wall].tolist()) == set(R.tolist()) and len(set(R.tolist())) == 2
    assert np.all(g._window_bounds(f1, centers, 3 * R)[0][on_wall, 0] == 0)


@pytest.mark.parametrize("omega", [g.ball([0.05, -0.1], 0.9), None], ids=["ball", "none"])
@pytest.mark.parametrize("size", [48, 96, 128])
def test_ball_pair_family_matches_per_candidate_loop(size, omega):
    u = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), size, lambda p: p[:, 0])
    want = loop_ball_pair_family(u, omega, 0.2)
    assert want and same_family(ge._ball_pair_family(u, omega, 0.2), want)


def same_family(family, pairs):
    """The family's (centers, R) arrays hold the loop's pairs, bit for bit."""
    centers, R = family
    return (centers.shape == (len(pairs), centers.shape[1]) and R.dtype == np.float64
            and centers.tobytes() == np.array([c for c, _ in pairs]).tobytes()
            and R.tobytes() == np.array([r for _, r in pairs]).tobytes())

def rounding_edge_omega(u, r):
    """An omega ball whose edge passes within rounding of B_r(c) for a
    candidate center c: the per-center norm keeps the ball, and a norm
    summed along axis 1, which rounds one ulp up there, would drop it."""
    cand = g._window_centers(u, (slice(None, None, 8),) * u.n).reshape(-1, u.n)
    cand = cand[np.all(np.abs(cand) <= 1.0 - r, axis=1)]
    rng = np.random.default_rng(0)
    while True:
        ctr = rng.uniform(-0.2, 0.2, u.n)
        d = cand - ctr
        one = np.array([np.linalg.norm(x) for x in d])
        up = np.flatnonzero(np.linalg.norm(d, axis=1) > one)
        for i in up.tolist():
            rad = one[i] + r - 1e-12
            for _ in range(8):
                if not one[i] + r <= rad + 1e-12:
                    rad = np.nextafter(rad, np.inf)
                elif np.linalg.norm(d, axis=1)[i] + r <= rad + 1e-12:
                    rad = np.nextafter(rad, -np.inf)
                else:
                    return g.ball(ctr, float(rad)), cand[i]


def test_ball_pair_family_takes_one_dot_per_center():
    u = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 96, lambda p: p[:, 0])
    omega, edge = rounding_edge_omega(u, 3 * 0.2)
    want = loop_ball_pair_family(u, omega, 0.2)
    assert any(c.tobytes() == edge.tobytes() and r == 0.2 for c, r in want)
    assert same_family(ge._ball_pair_family(u, omega, 0.2), want)

def test_ball_pair_family_cases_match_per_candidate_loop(family):
    f1, _f2, omega, R0, pairs = family
    assert same_family(ge._ball_pair_family(f1, omega, R0), pairs)


def test_energy_walk_matches_per_ball_loop(family, window_cap):
    f1, f2, omega, R0, pairs = family
    delta, dhat = 0.9505, 0.7125
    got = hn._energy_walk(f1, f1.scalar(), f2.scalar(), ge._ball_pair_family(f1, omega, R0), delta, dhat)
    want = loop_energy_walk(f1, f1.scalar(), f2.scalar(), pairs, delta, dhat)
    for key in ("lhs", "half", "F", "low"):
        assert got[key].dtype == np.float64 and got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("mode", ["all", "conditional"])
def test_gehring_walk_matches_per_ball_loop(family, window_cap, mode):
    f1, f2, omega, R0, pairs = family
    cert = ge.gehring_constants(f1.n, 2.0, 0.5, 0.5, R0=R0)
    fam = ge._ball_pair_family(f1, omega, R0)
    for g2 in (f2, f2.with_values(f2.values / 1000)):  # the second needs a positive premise constant
        got = ge._gehring_walk(f1, g2, cert, fam, mode)
        want = loop_gehring_walk(f1, g2, cert, pairs, mode)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert want[1].any()


@pytest.fixture(scope="module")
def ball_scans_truncation():
    """The ball_scans workload's 128^2 truncation result (level 1.1x)."""
    u, w, cfg, der, tc, data = suites.truncation_fixture(128)
    return tr.truncate(u, w, cfg, der, dataclasses.replace(tc, lambda_mult=1.1), data=data)


def admissibility_cases(res):
    """The result itself; at m = 2, where an order's block holds several
    multi-indices; at m = 2 with 2 components; and a 3-D field at m = 2."""
    rng = np.random.default_rng(50)
    grid = res.v_lambda
    two = grid.with_values(np.stack([fourier_sampler(rng, 2)(grid.cell_centers().reshape(-1, 2)),
                                     grid.scalar().reshape(-1)], axis=1).reshape(grid.dims + (2,)))
    f3 = g.create_grid(g.box([-0.5] * 3, [0.5] * 3), 24, fourier_sampler(rng, 3))
    m2, case = types.SimpleNamespace(m=2, p=2.0), types.SimpleNamespace
    return {
        "truncation-128": res,
        "m2": case(cfg=m2, config=res.config, lam=res.lam, v_lambda=grid),
        "m2-two-components": case(cfg=m2, config=res.config, lam=res.lam, v_lambda=two),
        "3-d-m2": case(cfg=m2, config=case(center=np.array([0.02, -0.03, 0.01]), R=0.4), lam=2.0, v_lambda=f3),
    }


@pytest.mark.parametrize("case", ["truncation-128", "m2", "m2-two-components", "3-d-m2"])
def test_admissibility_matches_per_ball_loop(ball_scans_truncation, window_cap, case):
    res = admissibility_cases(ball_scans_truncation)[case]
    want = loop_admissibility_report(res)
    got = tr.admissibility_report(res)
    assert list(got) == list(want) and all(v > 0 for v in want.values())
    assert [float(v).hex() for v in got.values()] == [float(v).hex() for v in want.values()]


@pytest.mark.parametrize("n,size", [(1, 57), (2, 33), (3, 11)])
@pytest.mark.parametrize("cap", [None, 1, 40])
def test_ball_rows_match_ball_cells(monkeypatch, n, size, cap):
    """Each ball's rows are the cells ``ball_cells`` selects, in its order,
    for 1, 2 and 3 radii at once; each ball comes out once, and a chunk
    holds at most the cap's cells, or one window."""
    if cap is not None:
        monkeypatch.setattr(g, "_WINDOW_CELLS", cap)
    windows = []
    ball_windows = g._ball_windows

    def recording(*args):
        for ids, cells, d2 in ball_windows(*args):
            windows.append((len(ids), cells.size))
            yield ids, cells, d2

    monkeypatch.setattr(g, "_ball_windows", recording)
    grid = lattice(n, size)
    index = np.arange(math.prod(grid.dims)).reshape(grid.dims)
    cases = radii_cases(ball_cases(grid, np.random.default_rng(20 + n)))
    for k in (1, 2, 3):
        picked = [(c, radii) for c, radii in cases if len(radii) == k]
        centers = np.array([c for c, _ in picked])
        seen = np.zeros(len(picked), dtype=int)
        for ids, rows in g._ball_rows(grid, centers, *[[radii[j] for _, radii in picked] for j in range(k)]):
            assert len(rows) == k and all(r.shape[0] == len(ids) for r in rows)
            for i, b in enumerate(ids.tolist()):
                c, radii = picked[b]
                slices, _centers, _d2, masks = ball_cells(grid, c, *radii)
                for row, inside in zip(rows, masks):
                    assert row[i].tolist() == index[slices][inside].tolist(), (c, radii)
                seen[b] += 1
        assert seen.tolist() == [1] * len(picked)
    limit = g._WINDOW_CELLS
    assert windows and all(cells <= limit or balls == 1 for balls, cells in windows)
    if cap == 1:
        assert all(balls == 1 for balls, _cells in windows)


def two_pass_truncation(v, pou, m):
    """Every Whitney ball's mean-value polynomial fitted first, then all of
    them blended in a second loop over the balls."""
    cov = pou.cover
    cells, psis, _den = pou.psi_grid(v)
    centers = v.cell_centers().reshape(-1, v.n)
    dfields = {sig: g.partial_derivative(v, sig).values.reshape(-1, v.components)
               for sig in g.multi_indices_upto(v.n, m - 1)}
    polys = []
    for i in range(len(cov)):
        cc, w = cells[i], psis[i]
        if len(cc) == 0 or w.sum() <= 0:
            polys.append(None)
            continue
        rows = {sig: f[cc] for sig, f in dfields.items()}
        polys.append(mp.fit_on_cells(centers[cc], w, rows, m, cov.centers[i]))
    vflat = v.values.reshape(-1, v.components)
    out = vflat.copy()
    for i in range(len(cov)):
        if polys[i] is not None:
            cc, w = cells[i], psis[i]
            out[cc] -= (vflat[cc] - polys[i].evaluate(centers[cc])) * w[:, None]
    return polys, out.reshape(v.values.shape)


@pytest.mark.parametrize("mult,disc", [(1.1, False), (2.0, False), (1.5, True)])
def test_truncate_matches_two_pass_loop(monkeypatch, mult, disc):
    u, w, cfg, der, tc, data = suites.truncation_fixture(96)
    tc = dataclasses.replace(tc, lambda_mult=mult)
    if disc:  # the fixture's balls hold one cell each; a disc's balls overlap
        cover = tr.cover
        monkeypatch.setattr(tr, "cover", lambda grid, _bad, R: cover(grid, g.ball(tc.center, 2 * R).mask_for(grid), R))
    res = tr.truncate(u, w, cfg, der, tc, data=data)
    polys, v_lambda = two_pass_truncation(res.v, wh.PartitionOfUnity(res.cover), cfg.m)
    assert len(res.cover) > 0 and res.v_lambda.values.tobytes() == v_lambda.tobytes()
    if disc:
        assert max(len(a) for a in res.cover.neighbors) > 1
    assert [p is None for p in res.local_polys] == [p is None for p in polys]
    for got, want in zip(res.local_polys, polys):
        if want is not None:
            assert sorted(got.coeffs) == sorted(want.coeffs)
            assert all(got.coeffs[sig].tobytes() == want.coeffs[sig].tobytes() for sig in want.coeffs)
