"""Exact fast paths against their definitions, compared bit for bit.

The oracles here are the definitions the fast paths replace: the maximal
operator's per-offset dilation (one shift per stride-r//8 disc offset), the
per-step loop of one restricted maximal call per iteration that
``MaximalSpec.iterations`` replaces, the
dense O(N^2) pair sweep of the infimal convolution, and the full-grid
per-ball geometry (distances from every cell center) that the ball window
replaces in the ball masks, the Whitney cover and its checks, the energy
and reverse-Hoelder scans, the Gehring scan and the admissibility report.
"""

import dataclasses
import math

import numpy as np
import pytest

from dptool import exponents as ex
from dptool import gehring as ge
from dptool import grid as g
from dptool import harness as hn
from dptool import maximal as mx
from dptool import meanpoly as mp
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


def per_offset_maximal_once(vals, n, h, beta, mode):
    result = np.zeros_like(vals)
    for r_cells in mx._radii_cells(vals.shape):
        radius = 0.5 * h if r_cells == 0 else r_cells * h
        cand = (radius**beta if beta else 1.0) * mx._ball_average(vals, n, r_cells)
        if mode == "centered" or r_cells == 0:
            np.maximum(result, cand, out=result)
            continue
        acc = cand.copy()
        for d in disc_offsets(n, r_cells, max(1, r_cells // 8)):
            if d.any():
                mx._shift_max(acc, cand, d)
        np.maximum(result, acc, out=result)
    return result


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
    return {"rough": np.abs(rough.scalar()), "zero": np.zeros(shape), "constant": np.full(shape, 0.7)}


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


@pytest.mark.parametrize("n,size", [(1, 57), (2, 33), (3, 11)])
def test_ball_mask_matches_full_grid(n, size):
    grid = lattice(n, size)
    for c, r in ball_cases(grid, np.random.default_rng(n)):
        assert g.ball(c, r).mask_for(grid).tobytes() == full_ball_mask(grid, c, r).tobytes(), (c, r)


@pytest.mark.parametrize("n,size", [(1, 57), (2, 33), (3, 11)])
def test_window_holds_every_cell_of_the_ball(n, size):
    grid = lattice(n, size)
    everywhere = grid.cell_centers()
    for c, r in ball_cases(grid, np.random.default_rng(10 + n)):
        slices, centers = g._ball_window(grid, c, r)
        assert centers.tobytes() == everywhere[slices].tobytes()
        inside = np.linalg.norm(everywhere - c, axis=-1) < r
        in_window = np.zeros(grid.dims, dtype=bool)
        in_window[slices] = True
        assert not np.any(inside & ~in_window), (c, r)


def full_grid_cover(grid, mask, R):
    """Whitney cover with the kept balls rebuilt into arrays after each one."""
    d = wh.distance_to_complement(grid, mask)
    flat_idx = np.flatnonzero(mask.reshape(-1))
    d_flat = d.reshape(-1)[flat_idx]
    pts = grid.cell_centers().reshape(-1, grid.n)[flat_idx]
    kept_c, kept_r = [], []
    covered = np.zeros(len(flat_idx), dtype=bool)
    for oi in np.lexsort((flat_idx, -d_flat)):
        if covered.all():
            break
        x = pts[oi]
        r = min(d_flat[oi] / 12.0, float(R))
        if r <= 0:
            continue
        if kept_r and np.any(np.linalg.norm(np.asarray(kept_c) - x, axis=1) < (r + np.asarray(kept_r)) / 4.0):
            continue
        kept_c.append(x)
        kept_r.append(r)
        covered |= np.linalg.norm(pts - x, axis=1) < r / 2.0
    return np.asarray(kept_c), np.asarray(kept_r)


def full_grid_w3(cov, grid, mask):
    centers_flat = grid.cell_centers().reshape(-1, grid.n)
    mask_flat = mask.reshape(-1)
    lo, hi = grid.box_lo, grid.box_hi
    for c, r in zip(cov.centers, cov.radii):
        if np.any(c - 8 * r < lo) or np.any(c + 8 * r > hi):
            return False
        if np.any(~mask_flat[np.linalg.norm(centers_flat - c, axis=1) < 8 * r]):
            return False
        inside16 = np.linalg.norm(centers_flat - c, axis=1) < 16 * r
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
        kc, kr = full_grid_cover(grid, mask, 1.0)
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
        d = np.linalg.norm(centers - c, axis=1)
        in1, in2, in3 = d < R, d < 2 * R, d < 3 * R
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
    test_centers = centers[(np.linalg.norm(centers - tc.center, axis=1) < 2.0 * tc.R) & on_stride]
    worst = 0.0
    for r in [tc.R * 2.0**-j for j in range(1, 7)]:
        if r < 2 * grid.spacing:
            continue
        for z in test_centers:
            inside = np.linalg.norm(centers - z, axis=1) < r
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
