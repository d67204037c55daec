"""Comparison-class weights: seminorm estimation, regularization, integrand."""

import numpy as np
import pytest

from dptool import grid as g
from dptool import exponents as ex
from dptool.weights import (
    double_phase,
    double_phase_field,
    estimate_seminorm,
    regularize,
)


class TestSeminorm:
    def test_constant_weight_gives_one(self):
        a = g.create_grid(g.box([-1.0], [1.0]), 64, lambda p: np.full(len(p), 3.0))
        est, div = estimate_seminorm(a, 0.5)
        assert est == 1.0 and not div

    def test_power_weight_subadditive(self):
        # |x|^alpha with alpha <= 1 satisfies the inequality with constant 1
        a = g.create_grid(g.box([-1.0], [1.0]), 128, lambda p: np.abs(p[:, 0]) ** 0.5)
        est, div = estimate_seminorm(a, 0.5)
        assert est <= 1.0 + 1e-6 and not div

    def test_step_weight_diverges(self):
        # ratio across the jump scales like h^-alpha; alpha > 1 trips the
        # factor-2-per-refinement heuristic
        a = g.create_grid(g.box([-1.0], [1.0]), 256, lambda p: (p[:, 0] > 0).astype(float))
        est, div = estimate_seminorm(a, 1.5)
        assert div and est > 10.0

    def test_negative_sample_rejected(self):
        a = g.create_grid(g.box([-1.0], [1.0]), 16, lambda p: p[:, 0])
        with pytest.raises(g.GridError):
            estimate_seminorm(a, 0.5)

    def test_all_zero_weight_floor(self):
        a = g.create_grid(g.box([-1.0], [1.0]), 32, lambda p: np.zeros(len(p)))
        est, div = estimate_seminorm(a, 0.5)
        assert est == 1.0 and not div


class TestRegularize:
    def test_constant_fixed_point(self):
        a = g.create_grid(g.box([-1.0], [1.0]), 64, lambda p: np.full(len(p), 2.0))
        at = regularize(a, 0.5, diverging=False)
        assert np.array_equal(at.scalar(), a.scalar())

    def test_below_original_exactly(self):
        a = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 32,
                          lambda p: np.abs(np.sin(5 * p[:, 0])) + p[:, 1] ** 2)
        at = regularize(a, 0.75, diverging=False)
        assert np.all(at.scalar() <= a.scalar())

    def test_power_weight_matches_dense_oracle(self):
        # for |x|^alpha with alpha <= 1 the envelope equals the weight, and
        # a denser candidate set (refinement containing the lattice) agrees
        a = g.create_grid(g.box([-1.0], [1.0]), 64, lambda p: np.abs(p[:, 0]) ** 0.5)
        at = regularize(a, 0.5, diverging=False)
        pts = a.cell_centers().reshape(-1, 1)
        dense = np.linspace(-1.0 + 1.0 / 64, 1.0 - 1.0 / 64, 4 * 64 - 3)[:, None]
        dvals = np.abs(dense[:, 0]) ** 0.5
        oracle = np.min(dvals[None, :] + np.abs(pts - dense.T) ** 0.5, axis=1)
        assert np.abs(at.scalar().reshape(-1) - oracle).max() < 1e-10

    def test_regularized_class_constant(self):
        a = g.create_grid(g.box([-1.0], [1.0]), 128, lambda p: np.minimum(1.0, 4 * np.abs(p[:, 0])) ** 0.5)
        at = regularize(a, 0.5, diverging=False)
        est, _ = estimate_seminorm(at, 0.5)
        assert est <= 2**0.5 + 1e-6

    def test_idempotent(self):
        a = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 24,
                          lambda p: np.linalg.norm(p, axis=1) ** 0.5)
        at = regularize(a, 0.5, diverging=False)
        att = regularize(at, 0.5, diverging=False)
        assert np.abs(att.scalar() - at.scalar()).max() < 1e-10

    def test_comparability_bracket(self):
        a = g.create_grid(g.box([-1.0], [1.0]), 128,
                          lambda p: np.abs(p[:, 0]) ** 0.5 + 0.2 * (p[:, 0] > 0.3))
        est, div = estimate_seminorm(a, 0.5)
        assert not div
        at = regularize(a, 0.5, diverging=False)
        assert np.all(at.scalar() <= a.scalar())
        assert np.all(a.scalar() <= est * at.scalar() + 1e-12)


class TestDoublePhase:
    def test_zero_argument(self):
        assert double_phase(0.0, 1.0, 4.0, 4.4, 2.2) == 0.0

    def test_pure_p_phase(self):
        assert double_phase(2.0, 0.0, 3.0, 4.0, 2.0) == 8.0

    def test_model_example(self):
        # top order with p=2, q=3, a=1, |z|=2: 4 + 8
        assert double_phase(2.0, 1.0, 2.0, 3.0, 3.0) == 12.0

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(0x5EED)
        for _ in range(200):
            z1, z2 = rng.uniform(0, 5, size=2)
            a = rng.uniform(0, 2)
            mid = double_phase((z1 + z2) / 2, a, 4.0, 4.4, 2.2)
            avg = 0.5 * (double_phase(z1, a, 4.0, 4.4, 2.2) + double_phase(z2, a, 4.0, 4.4, 2.2))
            assert mid <= avg + 1e-9

    def test_monotone_in_argument(self):
        zs = np.linspace(0, 3, 50)
        vals = double_phase(zs, 0.7, 4.0, 4.4, 2.2)
        assert np.all(np.diff(vals) >= 0)

    def test_field_against_pointwise(self, weight64):
        cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)
        der = ex.derive(cfg)
        z = weight64.a.with_values(np.abs(weight64.a.values) + 1.0)
        H = double_phase_field(z, weight64, der, cfg.q, 0)
        direct = double_phase(z.scalar(), weight64.a.scalar(),
                              der.gamma["p"][0], der.gamma["q"][0], cfg.q)
        assert np.array_equal(H.scalar(), direct)
