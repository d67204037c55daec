"""Exact fast paths against their definitions, compared bit for bit.

The oracles here are the definitions the fast paths replace: the maximal
operator's per-offset dilation (one shift per stride-r//8 disc offset) and
the dense O(N^2) pair sweep of the infimal convolution.
"""

import numpy as np
import pytest

from dptool import grid as g
from dptool import maximal as mx
from dptool import weights as wt
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
