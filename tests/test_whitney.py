"""Whitney covers and partitions of unity."""

import numpy as np
import pytest

from dptool import grid as g
from dptool import whitney as wh
from dptool.suites import random_masks


@pytest.fixture(scope="module")
def grid2():
    return g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 80, lambda p: np.zeros(len(p)))


@pytest.fixture(scope="module")
def strip_cover_1d():
    gr = g.create_grid(g.box([-2.0], [2.0]), 256, lambda p: np.zeros(len(p)))
    c = gr.cell_centers()[..., 0]
    mask = (c > 0) & (c < 1)
    return gr, mask, wh.cover(gr, mask, R=1.0)


class TestCover:
    def test_empty_mask(self, grid2):
        cov = wh.cover(grid2, np.zeros(grid2.dims, dtype=bool), R=1.0)
        assert len(cov) == 0
        rep = wh.verify_cover(cov, grid2, np.zeros(grid2.dims, dtype=bool))
        assert all(rep[k] for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7"))

    def test_1d_strip_radius_window(self, strip_cover_1d):
        gr, mask, cov = strip_cover_1d
        # at the strip center the distance is 1/2, so the radius sits inside
        # the admissible window [d/16, d/8] = [1/32, 1/16]
        i = int(np.argmin(np.abs(cov.centers[:, 0] - 0.5)))
        assert 1.0 / 32.0 <= cov.radii[i] <= 1.0 / 16.0

    def test_quarter_balls_disjoint_exhaustive(self, strip_cover_1d):
        gr, mask, cov = strip_cover_1d
        k = len(cov)
        for i in range(k):
            for j in range(i + 1, k):
                d = abs(cov.centers[i, 0] - cov.centers[j, 0])
                assert d >= (cov.radii[i] + cov.radii[j]) / 4.0 - 1e-15

    def test_full_verification(self, strip_cover_1d):
        gr, mask, cov = strip_cover_1d
        rep = wh.verify_cover(cov, gr, mask)
        assert all(rep[k] for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7"))
        assert rep["overlap_max"] <= 64

    def test_determinism(self, grid2):
        masks = random_masks(grid2, 1)
        a = wh.cover(grid2, masks[0], R=1.0)
        b = wh.cover(grid2, masks[0], R=1.0)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.radii, b.radii)

    def test_corrupted_radius_fails_w4(self, strip_cover_1d):
        gr, mask, cov = strip_cover_1d
        radii = cov.radii.copy()
        radii[len(radii) // 2] *= 4.0
        bad = wh.WhitneyCover(cov.centers, radii, cov.max_radius)
        rep = wh.verify_cover(bad, gr, mask)
        assert not rep["W4"]


class TestNeighborSets:
    def test_single_ball(self):
        cov = wh.WhitneyCover(np.array([[0.0, 0.0]]), np.array([0.1]), 1.0)
        assert list(cov.neighbors[0]) == [0]

    def test_two_far_balls(self):
        cov = wh.WhitneyCover(np.array([[0.0], [10.0]]), np.array([0.1, 0.1]), 1.0)
        assert list(cov.neighbors[0]) == [0]
        assert list(cov.neighbors[1]) == [1]

    def test_against_quadratic_oracle(self, strip_cover_1d):
        gr, mask, cov = strip_cover_1d
        k = len(cov)
        for i in range(k):
            brute = [
                j for j in range(k)
                if np.linalg.norm(cov.centers[i] - cov.centers[j])
                < 0.75 * (cov.radii[i] + cov.radii[j])
            ]
            assert list(cov.neighbors[i]) == brute


class TestPartition:
    def test_single_ball_plateau(self):
        cov = wh.WhitneyCover(np.array([[0.0, 0.0]]), np.array([0.2]), 1.0)
        pou = wh.PartitionOfUnity(cov)
        pts = np.array([[0.0, 0.0], [0.05, 0.05], [0.09, 0.0]])
        assert np.all(pou.psi_values(0, pts) == 1.0)
        outside = np.array([[0.2, 0.0]])
        assert pou.psi_values(0, outside)[0] == 0.0

    def test_raw_bump_brackets(self, grid2):
        mask = random_masks(grid2, 1)[0]
        cov = wh.cover(grid2, mask, R=1.0)
        pou = wh.PartitionOfUnity(cov)
        centers = grid2.cell_centers().reshape(-1, grid2.n)
        for i in range(0, len(cov), max(1, len(cov) // 20)):
            d = np.linalg.norm(centers - cov.centers[i], axis=1)
            vals = pou.bump(i, centers)
            assert np.all(vals[d < cov.radii[i] / 2] == 1.0)
            assert np.all(vals[d >= 0.75 * cov.radii[i]] == 0.0)
            assert np.all((vals >= 0) & (vals <= 1))

    def test_partition_sums_to_one(self, grid2):
        for mask in random_masks(grid2, 3):
            if not mask.any():
                continue
            cov = wh.cover(grid2, mask, R=1.0)
            pou = wh.PartitionOfUnity(cov)
            cells, psis, denom = pou.psi_grid(grid2)
            total = np.zeros(int(np.prod(grid2.dims)))
            for cc, vv in zip(cells, psis):
                np.add.at(total, cc, vv)
            covered = mask.reshape(-1)
            assert np.abs(total[covered] - 1.0).max() < 1e-10
            assert np.all(total[denom == 0] == 0.0)

    def test_neighbor_sum_matches_global(self, grid2):
        # on each 3/4-ball the neighbor-set partial sum is the full sum
        mask = random_masks(grid2, 2)[1]
        cov = wh.cover(grid2, mask, R=1.0)
        pou = wh.PartitionOfUnity(cov)
        centers = grid2.cell_centers().reshape(-1, grid2.n)
        for i in range(0, len(cov), max(1, len(cov) // 10)):
            d = np.linalg.norm(centers - cov.centers[i], axis=1)
            sel = centers[d < 0.75 * cov.radii[i]]
            if not len(sel):
                continue
            partial = sum(pou.psi_values(int(j), sel) for j in cov.neighbors[i])
            assert np.abs(partial - 1.0).max() < 1e-10

    def test_order_zero_derivative_bound_is_one(self):
        cov = wh.WhitneyCover(np.array([[0.0, 0.0]]), np.array([0.2]), 1.0)
        pou = wh.PartitionOfUnity(cov)
        rep = wh.pou_derivative_bound_report(pou, 0)
        assert rep["sup_scaled_derivative"][0] == pytest.approx(1.0, abs=1e-12)

    def test_derivative_bounds_refinement_stable(self):
        vals = []
        for size in (64, 128):
            gr = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), size, lambda p: np.zeros(len(p)))
            c = gr.cell_centers()
            mask = np.linalg.norm(c, axis=-1) < 0.3
            cov = wh.cover(gr, mask, R=1.0)
            pou = wh.PartitionOfUnity(cov)
            rep = wh.pou_derivative_bound_report(pou, 1, samples_per_ball=4)
            vals.append(rep["sup_scaled_derivative"][1])
        assert abs(vals[1] - vals[0]) / vals[0] < 0.2


class TestW7:
    def test_lower_bound_on_intersecting_pairs(self, grid2):
        mask = random_masks(grid2, 1)[0]
        cov = wh.cover(grid2, mask, R=1.0)
        rep = wh.verify_cover(cov, grid2, mask, pair_samples=32)
        assert rep["W7"]
        # the geometric chain gives |B_i cap 3/4 B_j| >= (r_i/64)^n omega_n,
        # i.e. the recorded constant stays below 64^n * 2^n
        assert rep["W7_constant"] <= 64.0**2 * 4.0
