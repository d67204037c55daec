"""Exact fast paths against their definitions, compared bit for bit.

The oracles here are the definitions the fast paths replace:
``scipy.signal.fftconvolve(mode="same")``, which the pruned FFT convolution
replaces in the ball averages and the Riesz potential, the maximal
operator's per-offset dilation (one shift per stride-r//8 disc offset) and
its per-half-width ``maximum_filter1d`` line maxima, the
per-step loop of one restricted maximal call per iteration that
``MaximalSpec.iterations`` replaces, the
dense O(N^2) pair sweep of the infimal convolution, the full-grid
per-ball geometry (distances from every cell center) that the ball window
replaces in the ball masks, the Whitney cover and its checks, the energy
and reverse-Hoelder scans, the Gehring scan and the admissibility report,
the per-ball Whitney loops (the per-candidate greedy cover, neighbour sets,
W1, W3, W4 and W5) that the tree pair lists replace, and the scalar
node-by-node sum of the layer-cake check.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.ndimage import maximum_filter1d
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


def disc_offsets(n, r_cells, stride):
    if r_cells == 0:
        return np.zeros((1, n), dtype=int)
    ax = np.arange(-(r_cells // stride) * stride, r_cells + 1, stride)
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return pts[np.sum(pts * pts, axis=1) <= r_cells * r_cells]


def fftconvolve_ball_average(vals, n, r_cells):
    if r_cells == 0:
        return vals
    count = mx._disc_count(n, r_cells)
    if mx._covers(vals.shape, r_cells):
        return np.full_like(vals, vals.sum() / count)
    out = fftconvolve(vals, mx._disc_kernel(n, r_cells), mode="same") / count
    np.maximum(out, 0.0, out=out)
    out[out < vals.max() * 1e-13] = 0.0
    return out


def per_offset_maximal_once(vals, n, h, beta, mode):
    result = np.zeros_like(vals)
    for r_cells in mx._radii_cells(vals.shape):
        radius = 0.5 * h if r_cells == 0 else r_cells * h
        cand = (radius**beta if beta else 1.0) * fftconvolve_ball_average(vals, n, r_cells)
        if mode == "centered" or r_cells == 0:
            np.maximum(result, cand, out=result)
            continue
        acc = cand.copy()
        for d in disc_offsets(n, r_cells, max(1, r_cells // 8)):
            if d.any():
                mx._shift_max(acc, cand, d)
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
        cand = (radius**beta if beta else 1.0) * fftconvolve_ball_average(vals, n, r_cells)
        if mode == "centered" or r_cells == 0 or mx._covers(vals.shape, r_cells):
            np.maximum(result, cand, out=result)
            continue
        stride = max(1, r_cells // 8)
        prefixes, halfwidths = mx._disc_rows(n, r_cells, stride)
        lines = {k: filter_line_max(cand, stride, int(k)) for k in np.unique(halfwidths)}
        acc = np.zeros_like(vals)
        for prefix, k in zip(prefixes, halfwidths):
            mx._shift_max(acc, lines[k], np.append(prefix, 0))
        np.maximum(result, acc, out=result)
    return result


def fftconvolve_riesz_potential(f, spec):
    vals = np.sqrt(np.sum(f.values**2, axis=-1)) if f.components > 1 else np.abs(f.scalar())
    vals = np.where(spec.region.mask_for(f), vals, 0.0)
    h = f.spacing
    offs = np.meshgrid(*[np.arange(-(d - 1), d) * h for d in f.dims], indexing="ij")
    dist = np.sqrt(sum(o**2 for o in offs))
    with np.errstate(divide="ignore"):
        kernel = dist ** (spec.gamma - f.n) * (h**f.n)
    kernel[tuple(d - 1 for d in f.dims)] = pt._self_cell_weight(f.n, h, spec.gamma)
    out = fftconvolve(vals, kernel, mode="same")
    np.maximum(out, 0.0, out=out)
    return out[..., None]


def per_step_iterated_maximal(f, spec):
    out = f
    for _ in range(spec.iterations):
        out = mx.maximal_function(out, dataclasses.replace(spec, iterations=1))
    return out


def dense_min_convolution(pts_x, pts_y, vals_y, alpha):
    d2 = (pts_x[:, 0][:, None] - pts_y[:, 0][None, :]) ** 2
    for ax in range(1, pts_x.shape[1]):
        d2 += (pts_x[:, ax][:, None] - pts_y[:, ax][None, :]) ** 2
    return np.min(vals_y[None, :] + wt._alpha_power_of_sq(d2, alpha), axis=1)


# ---------------------------------------------------------------------------
# maximal operator
# ---------------------------------------------------------------------------


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
    """Every non-covering disc kernel, and the Riesz kernel's (2d-1)^n shape."""
    kernels = [mx._disc_kernel(n, r) for r in mx._radii_cells((size,) * n)
               if r and not mx._covers((size,) * n, r)]
    kernels.append(np.random.default_rng(size).random((2 * size - 1,) * n))
    for name, vals in samples(n, size, seed=size + n).items():
        for kernel in kernels:
            fast = mx._fft_same(vals, kernel)
            slow = fftconvolve(vals, kernel, mode="same")
            assert fast.tobytes() == slow.tobytes(), (name, kernel.shape)


def test_fft_same_with_a_held_spectrum_matches_fftconvolve():
    """Radii 1-3 and 6-8 share a padded shape on 53^2, so their calls reuse the spectrum."""
    vals = samples(2, 53, seed=1)["rough"]
    held = {}
    for r in (1, 2, 3, 4, 6, 8, 12):
        kernel = mx._disc_kernel(2, r)
        fast = mx._fft_same(vals, kernel, held)
        assert fast.tobytes() == fftconvolve(vals, kernel, mode="same").tobytes(), r
        assert held["fshape"] == [next_fast_len(53 + 2 * r, True)] * 2


@pytest.mark.parametrize("n,size,gamma", [(n, size, gamma) for n, size in [(1, 96), (2, 37), (2, 64), (3, 16)]
                                          for gamma in (0.3, 0.5, 1.0) if gamma < n])
def test_riesz_matches_fftconvolve_definition(n, size, gamma):
    rng = np.random.default_rng(size + n)
    f = g.create_grid(g.box([-1.0] * n, [1.0] * n), size, fourier_sampler(rng, n))
    for center, radius in (([0.0] * n, 1.0), ([0.3] * n, 0.5), ([-0.9] * n, 2.0)):
        spec = pt.PotentialSpec(gamma=gamma, region=g.ball(center, radius))
        fast = pt.riesz_potential(f, spec)
        assert fast.values.tobytes() == fftconvolve_riesz_potential(f, spec).tobytes(), (center, radius)


@pytest.mark.parametrize("n,size", [(1, 96), (2, 37), (2, 128), (3, 24)])
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_line_maxima_match_maximum_filter(n, size, beta):
    h = 2.0 / size
    for name, vals in samples(n, size, seed=size + n).items():
        fast = mx._maximal_once(vals, n, h, beta, "uncentered")
        slow = filter_line_maximal_once(vals, n, h, beta, "uncentered")
        assert fast.tobytes() == slow.tobytes(), name


@pytest.mark.parametrize("n,size", [(1, 37), (1, 96), (2, 37), (2, 96), (3, 16)])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("mode", ["uncentered", "centered"])
def test_maximal_matches_per_offset_oracle(n, size, beta, mode):
    h = 2.0 / size
    for name, vals in samples(n, size, seed=size + n).items():
        fast = mx._maximal_once(vals, n, h, beta, mode)
        slow = per_offset_maximal_once(vals, n, h, beta, mode)
        assert fast.tobytes() == slow.tobytes(), name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_disc_count_matches_kernel(n):
    for r in (1, 2, 3, 5, 8, 12, 17):
        assert mx._disc_count(n, r) == int(mx._disc_kernel(n, r).sum())


@pytest.mark.parametrize("n,size", [(1, 64), (2, 32)])
@pytest.mark.parametrize("iterations", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("restricted", [False, True])
def test_iterations_match_per_step_loop(n, size, iterations, beta, restricted):
    rng = np.random.default_rng(size + n)
    sampler = fourier_sampler(rng, n)
    # two components, so the first step takes the pointwise Euclidean norm
    f = g.create_grid(g.box([-1.0] * n, [1.0] * n), size,
                      lambda p: np.stack([sampler(p), np.cos(3.0 * p[:, 0])], axis=-1))
    region = g.ball([0.2] * n, 0.6) if restricted else None
    spec = mx.MaximalSpec(beta=beta, restriction=region, iterations=iterations)
    fast = mx.maximal_function(f, spec)
    slow = per_step_iterated_maximal(f, spec)
    assert fast.values.tobytes() == slow.values.tobytes()


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
    visited = []
    pair_values = wt._pair_values
    monkeypatch.setattr(wt, "_pair_values", lambda *args: visited.append(1) or pair_values(*args))
    wt._min_convolution(pts, pts, vals, 0.5)
    tiles = len(wt._tiles(pts)[1]) - 1
    assert tiles == (96 // 8) ** 2
    assert 0 < len(visited) < tiles * tiles // 10


# ---------------------------------------------------------------------------
# per-ball geometry: the ball window against the full grid
# ---------------------------------------------------------------------------


def full_ball_mask(grid, c, r):
    d2 = np.sum((grid.cell_centers() - np.asarray(c, dtype=float)) ** 2, axis=-1)
    return d2 < float(r) ** 2


def lattice(n, size):
    return g.create_grid(g.box([-1.0] * n, [1.0] * n), size, lambda p: p[:, 0])


def ball_cases(grid, rng):
    """Centers on and off the lattice and outside the box; radii below h/2,
    generic, covering the box, and within rounding of a cell center."""
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
        slices, _centers, _d2, masks = g._ball_cells(grid, c, *radii)
        assert len(masks) == len(radii)
        for r, inside in zip(radii, masks):
            assert inside.tobytes() == full_ball_mask(grid, c, r)[slices].tobytes(), (c, radii, r)


@pytest.mark.parametrize("n,size", [(1, 57), (2, 33), (3, 11)])
def test_window_holds_every_cell_of_the_ball(n, size):
    grid = lattice(n, size)
    everywhere = grid.cell_centers()
    for c, radii in radii_cases(ball_cases(grid, np.random.default_rng(10 + n))):
        slices, centers, d2, masks = g._ball_cells(grid, c, *radii)
        assert centers.tobytes() == everywhere[slices].tobytes()
        assert d2.tobytes() == np.sum((everywhere - c) ** 2, axis=-1)[slices].tobytes()
        in_window = np.zeros(grid.dims, dtype=bool)
        in_window[slices] = True
        for r, inside in zip(radii, masks):
            full = full_ball_mask(grid, c, r)
            assert not np.any(full & ~in_window), (c, radii, r)
            assert inside.tobytes() == full[slices].tobytes(), (c, radii, r)


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


def per_ball_checks(cov, grid, mask):
    """W1, W3 (on the 16r window), W4 and W5 ball by ball."""
    pts_in = grid.cell_centers().reshape(-1, grid.n)[mask.reshape(-1)]
    covered = np.zeros(len(pts_in), dtype=bool)
    for i in range(len(cov)):
        covered |= np.sum((pts_in - cov.centers[i]) ** 2, axis=1) < (cov.radii[i] / 2.0) ** 2
    out = {"W1": bool(covered.all()), "W3": True, "W4": True, "W5": True}
    lo, hi = grid.box_lo, grid.box_hi
    for c, r in zip(cov.centers, cov.radii):
        if np.any(c - 8 * r < lo) or np.any(c + 8 * r > hi):
            out["W3"] = False
            break
        slices, centers, _d2, _masks = g._ball_cells(grid, c, 16 * r)
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
        pou = wh.partition_of_unity(cov)
        cells, vals, denom = pou.grid_fields(grid)
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
    cells, vals, denom = wh.partition_of_unity(cov).grid_fields(grid)
    want_cells, want_vals, want_denom = full_grid_fields(wh.partition_of_unity(cov), grid)
    assert [a.tobytes() for a in cells] == [a.tobytes() for a in want_cells]
    assert [a.tobytes() for a in vals] == [a.tobytes() for a in want_vals]
    assert denom.tobytes() == want_denom.tobytes()


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
    windows = []
    ball_cells = wh._ball_cells
    monkeypatch.setattr(wh, "_ball_cells", lambda *args: windows.append(1) or ball_cells(*args))
    outcomes = []
    for radii in (tie, np.nextafter(tie, np.inf)):  # the nearest complement cell on the sphere, then inside
        tied = wh.WhitneyCover(cov.centers[::40], radii, cov.max_radius)
        got = wh.verify_cover(tied, grid, mask)["W3"]
        assert got == per_ball_checks(tied, grid, mask)["W3"] == full_grid_w3(tied, grid, mask)
        outcomes.append(got)
    assert outcomes == ([True, False] if reach == 8 else [False, True])
    assert len(windows) >= len(tie)


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
    return {"residual": worst, "points": len(pts)}


@pytest.mark.parametrize("r", [2.0, 1.0, 0.5, -0.5, -2.0])
def test_layer_cake_matches_scalar_loop(r):
    for seed in range(3):
        f = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 24, fourier_sampler(np.random.default_rng(seed), 2))
        f = f.with_values(np.abs(f.values) + 0.1 * seed)  # seed 0 keeps zeros, which r < 0 drops
        got = ge.layer_cake_check(f, r, nodes=2000)
        want = scalar_layer_cake(f, r, nodes=2000)
        assert got["points"] == want["points"]
        assert float(got["residual"]).hex() == float(want["residual"]).hex()


@pytest.fixture(scope="module")
def scan_inputs():
    b = g.box([-0.5, -0.5], [0.5, 0.5])
    u = g.create_grid(b, 48, fourier_sampler(np.random.default_rng(3), 2))
    a = wt.regularize(g.create_grid(b, 48, lambda p: np.linalg.norm(p, axis=1) ** 0.5), 0.5, diverging=False)
    cfg = ex.ExponentConfig(n=2, m=1, N=1, p=2.0, q=2.2, alpha=0.5)
    return u, wt.Weight(a=a, alpha=0.5), cfg, ex.derive(cfg), g.ball([0.0, 0.0], 0.48)


def full_grid_scans(u, weight, cfg, derived, omega, R0):
    """Caccioppoli and reverse-Hoelder terms per ball, from every cell."""
    delta = hn.scan_delta(derived.delta0)
    dhat = hn.delta_hat(cfg.n, cfg.p, cfg.q, cfg.alpha)
    F = tr.global_majorant(u, weight, cfg, derived, omega_mask=omega.mask_for(u))
    Hm = wt.double_phase_field(g.derivative_norm(u, cfg.m), weight, derived, cfg.q, cfg.m)
    a_vals = weight.a.scalar().reshape(-1)
    Hm_flat, F_flat = Hm.scalar().reshape(-1), F.scalar().reshape(-1)
    centers = u.cell_centers().reshape(-1, u.n)
    cacc, rh = [], []
    for c, R in ge._ball_pair_family(u, omega, R0):
        eta = tr.smooth_cutoff(u, c, R, 2.0 * R)
        P = mp.fit(u, g.ball(c, 2.0 * R), eta, cfg.m, c)
        d2 = np.sum((centers - c) ** 2, axis=1)
        in1, in2, in3 = d2 < R**2, d2 < (2 * R) ** 2, d2 < (3 * R) ** 2
        mid = mid_unpow = 0.0
        for ell in range(cfg.m):
            sq = np.zeros(len(centers))
            for sig in g.multi_indices(u.n, ell):
                du = g.partial_derivative(u, sig).values.reshape(-1, u.components)
                diff = du - P.differentiate(sig).evaluate(centers)
                sq += np.sum(diff**2, axis=1)
            z = np.sqrt(sq)[in2] / R ** (cfg.m - ell)
            hm_of = z**cfg.p + a_vals[in2] * z**cfg.q
            mid += float((hm_of**delta).mean())
            mid_unpow += float(hm_of.mean())
        cacc.append((float((Hm_flat[in1] ** delta).mean()), 0.5 * float((Hm_flat[in3] ** delta).mean()), mid,
                     float((F_flat[in3] ** delta).mean()), mid_unpow, float((Hm_flat[in2] ** dhat).mean())))
        rh.append((float((Hm_flat[in1] ** delta).mean()),
                   float((Hm_flat[in3] ** dhat).mean()) ** (delta / dhat),
                   float((F_flat[in3] ** delta).mean()), 0.5 * float((Hm_flat[in3] ** delta).mean())))
    return cacc, rh, (Hm_flat**delta).tobytes(), (F_flat**delta).tobytes()


def test_scans_match_full_grid(scan_inputs):
    u, weight, cfg, derived, omega = scan_inputs
    cacc = hn.caccioppoli_scan(u, weight, cfg, derived, omega, R0=0.1)
    rh = hn.reverse_holder_scan(u, weight, cfg, derived, omega, R0=0.1)
    want_cacc, want_rh, f1, f2 = full_grid_scans(u, weight, cfg, derived, omega, 0.1)
    assert cacc["count"] == len(want_cacc) > 4
    dhat = cacc["delta_hat"]
    control = max(w[4] / w[5] ** (1.0 / dhat) for w in want_cacc)
    assert cacc["mid_control_constant"] == control
    terms = [(b.lhs, b.terms["half"], b.terms["mid"], b.terms["F"]) for b in cacc["balls"]]
    assert terms == [w[:4] for w in want_cacc]
    assert [(b.lhs, b.terms["low"], b.terms["F"], b.terms["half"]) for b in rh["balls"]] == want_rh
    assert rh["f1"].values.tobytes() == f1 and rh["f2"].values.tobytes() == f2


def full_grid_mean(f, c, r, power=None):
    """``mean_over`` a ball from the full-grid mask."""
    m = full_ball_mask(f, c, r)
    vals = f.values if power is None else np.abs(f.values) ** float(power)
    return float((vals[m, :].sum(axis=0) * f.cell_volume / (float(m.sum()) * f.cell_volume))[0])


@pytest.mark.parametrize("mode", ["all", "conditional"])
def test_gehring_verify_matches_full_grid(scan_inputs, mode):
    u, weight, cfg, derived, omega = scan_inputs
    rh = hn.reverse_holder_scan(u, weight, cfg, derived, omega, R0=0.1)
    cert = ge.gehring_constants(2, max(rh["constant"], 1e-6), rh["kappa"], 0.5, R0=0.1)
    f1, f2 = rh["f1"], rh["f2"]
    got = ge.gehring_verify(f1, f2, cert, omega=omega, mode=mode)
    eps = cert.eps_max
    want = []
    for c, R in ge._ball_pair_family(f1, omega, cert.R0):
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
    records = [(r["premise_applicable"], r["A_required"], r["conclusion_constant"]) for r in got["records"]]
    assert records == want


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
        assert tr.admissibility_report(case)["max_ratio"] == {0: want} and want > 0
