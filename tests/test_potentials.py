"""Riesz potentials and the double-phase Sobolev--Poincare comparisons."""

import math

import numpy as np
import pytest

from dptool import grid as g
from dptool import potentials as pt
from dptool.corpus import fourier_corpus
from dptool.meanpoly import fit
from dptool.reporting import Check
from dptool.weights import Weight


class TestRieszPotential:
    def test_zero_input(self):
        f = g.create_grid(g.box([-1.0], [1.0]), 64, lambda p: np.zeros(len(p)))
        out = pt.riesz_potential(f, pt.PotentialSpec(gamma=0.5, region=g.ball([0.0], 1.0)))
        assert np.all(out.scalar() == 0.0)

    def test_homogeneity_bitwise(self):
        f = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 48,
                          lambda p: np.exp(-3 * np.sum(p**2, axis=1)))
        spec = pt.PotentialSpec(gamma=1.0, region=g.ball([0.0, 0.0], 1.0))
        a = pt.riesz_potential(f, spec)
        b = pt.riesz_potential(f.with_values(2.0 * f.values), spec)
        assert np.array_equal(b.values, 2.0 * a.values)

    def test_1d_closed_form(self):
        # I_{1/2} of 1 on (-1,1) at 0 equals 2 * int_0^1 y^{-1/2} dy = 4
        f = g.create_grid(g.box([-1.0], [1.0]), 256, lambda p: np.ones(len(p)))
        out = pt.riesz_potential(f, pt.PotentialSpec(gamma=0.5, region=g.ball([0.0], 1.0)))
        assert abs(out.scalar()[128] - 4.0) / 4.0 < 0.01

    def test_monotone_and_additive(self):
        b = g.box([-1.0], [1.0])
        f1 = g.create_grid(b, 64, lambda p: np.abs(np.sin(3 * p[:, 0])))
        f2 = g.create_grid(b, 64, lambda p: p[:, 0] ** 2)
        spec = pt.PotentialSpec(gamma=0.5, region=g.ball([0.0], 1.0))
        s = pt.riesz_potential(f1.with_values(f1.values + f2.values), spec)
        a = pt.riesz_potential(f1, spec)
        c = pt.riesz_potential(f2, spec)
        assert np.abs(s.values - a.values - c.values).max() < 1e-10
        assert np.all(a.values >= 0)

    def test_gamma_range(self):
        f = g.create_grid(g.box([-1.0], [1.0]), 16, lambda p: np.ones(len(p)))
        with pytest.raises(g.GridError):
            pt.riesz_potential(f, pt.PotentialSpec(gamma=1.5, region=g.ball([0.0], 1.0)))


class TestStrongType:
    def test_zero(self):
        f = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 32, lambda p: np.zeros(len(p)))
        ratio = pt.strong_type_report(f, 2.0, 0.9, g.ball([0.0, 0.0], 1.0))
        assert ratio == 0.0 and Check.from_bound("strong type", ratio, math.inf).status == "pass"

    def test_corpus_bounded_and_recorded(self):
        worst = 0.0
        B = g.ball([0.0, 0.0], 1.0)
        for f in fourier_corpus(2, 10, 64, seed=0x5EED):
            ratio = pt.strong_type_report(f, 2.0, 0.9, B)
            assert Check.from_bound("strong type", ratio, math.inf).status == "pass"
            worst = max(worst, ratio)
        assert worst < 20.0

    def test_scaling_invariance(self):
        f = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 48,
                          lambda p: np.exp(-2 * np.sum(p**2, axis=1)))
        B = g.ball([0.0, 0.0], 1.0)
        a = pt.strong_type_report(f, 2.0, 0.9, B)
        b = pt.strong_type_report(f.with_values(2 * f.values), 2.0, 0.9, B)
        assert a == pytest.approx(b, rel=1e-12)


class TestWeightedSplit:
    def test_unit_weight(self):
        f = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 48,
                          lambda p: np.exp(-5 * np.sum(p**2, axis=1)))
        ones = f.with_values(np.ones(f.dims)[..., None])
        w = Weight(a=ones, alpha=0.5)
        sup, ref = pt.weighted_split_check(f, w, 1.2, 1.5, g.ball([0.0, 0.0], 0.45), 0.45, 1.0)
        assert Check.from_bound("weighted split", sup, ref, 1e-9).status == "pass"
        assert sup <= ref

    def test_zero_weight(self):
        f = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 32,
                          lambda p: np.exp(-5 * np.sum(p**2, axis=1)))
        zero = f.with_values(np.zeros(f.dims)[..., None])
        w = Weight(a=zero, alpha=0.5)
        sup, _ref = pt.weighted_split_check(f, w, 1.2, 1.5, g.ball([0.0, 0.0], 0.45), 0.45, 1.0)
        assert sup == 0.0

    def test_power_weight_refinement_stable(self):
        ratios = []
        for size in (48, 96):
            f = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), size,
                              lambda p: np.exp(-40 * np.sum((p - 0.2) ** 2, axis=1)))
            a = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), size,
                              lambda p: np.linalg.norm(p, axis=1) ** 0.5)
            w = Weight(a=a, alpha=0.5)
            sup, ref = pt.weighted_split_check(f, w, 1.2, 1.5, g.ball([0.0, 0.0], 0.45), 0.45, 1.0)
            assert Check.from_bound("weighted split", sup, ref, 1e-9).status == "pass"
            ratios.append(sup)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.2


class TestPointwiseBound:
    def test_zero(self):
        u = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 32, lambda p: np.zeros(len(p)))
        eta = u.with_values(np.ones(u.dims)[..., None])
        assert pt.pointwise_riesz_bound_check(u, g.ball([0.0, 0.0], 1.0), eta) == 0.0

    def test_linear_minus_mean_stable(self):
        ratios = []
        for size in (48, 96):
            u = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), size, lambda p: p[:, 0])
            B = g.ball([0.0, 0.0], 1.0)
            eta = u.with_values(np.ones(u.dims)[..., None])
            mean = g.weighted_average(u, B, eta)
            u0 = u.with_values(u.values - mean)
            sup = pt.pointwise_riesz_bound_check(u0, B, eta)
            assert Check.from_bound("pointwise riesz", sup, math.inf).status == "pass"
            ratios.append(sup)
        assert abs(ratios[1] - ratios[0]) / max(ratios) < 0.2

    def test_homogeneity(self):
        u = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 48,
                          lambda p: p[:, 0] * p[:, 1])
        B = g.ball([0.0, 0.0], 1.0)
        eta = u.with_values(np.ones(u.dims)[..., None])
        mean = g.weighted_average(u, B, eta)
        u0 = u.with_values(u.values - mean)
        a = pt.pointwise_riesz_bound_check(u0, B, eta)
        u2 = u0.with_values(3.0 * u0.values)
        b = pt.pointwise_riesz_bound_check(u2, B, eta)
        assert a == pytest.approx(b, rel=1e-12)


def _centered(f, region, eta, m=1):
    P = fit(f, region, eta, m, np.zeros(f.n))
    vals = P.evaluate(f.cell_centers().reshape(-1, f.n)).reshape(f.dims + (f.components,))
    return f.with_values(f.values - vals)


def sp_ratio(sides):
    """LHS/(RHS1 + RHS2) of ``sobolev_poincare_report``'s sides."""
    lhs, rhs_weighted, rhs_scaling = sides
    return g._ratio(lhs, rhs_weighted + rhs_scaling)


class TestSobolevPoincare:
    def test_zero(self, weight64):
        u = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 64, lambda p: np.zeros(len(p)))
        B = g.ball([0.0, 0.0], 0.45)
        eta = u.with_values(np.ones(u.dims)[..., None])
        out = pt.sobolev_poincare_report(u, weight64, 2.0, 2.2, B, eta, 1, 2.2, 0.45)
        assert out[0] == 0.0 and Check.from_bound("sobolev-poincare", sp_ratio(out), math.inf).status == "pass"

    def test_classical_linear_oracle(self):
        # a = 1 and p = q: both sides have closed forms for linear u
        size = 96
        u = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), size, lambda p: p[:, 0])
        B = g.ball([0.0, 0.0], 0.45)
        eta = u.with_values(np.ones(u.dims)[..., None])
        w = Weight(a=eta, alpha=0.5)
        u0 = _centered(u, B, eta)
        out = pt.sobolev_poincare_report(u0, w, 2.0, 2.0, B, eta, 1, 2.0, 0.45)
        lhs, rhs_weighted, _rhs_scaling = out
        # LHS = (avg |x1/R|^2)^(1/2) = (R^2/4 / R^2)^(1/2) = 1/2 in the disc
        assert lhs == pytest.approx(0.5, rel=0.02)
        assert rhs_weighted == pytest.approx(1.0, rel=1e-6)
        assert sp_ratio(out) < 1.0

    def test_homogeneity_exact(self, weight64, corpus2_64):
        B = g.ball([0.0, 0.0], 0.45)
        eta = corpus2_64[0].with_values(np.ones(corpus2_64[0].dims)[..., None])
        u0 = _centered(corpus2_64[0], B, eta)
        a = pt.sobolev_poincare_report(u0, weight64, 2.0, 2.2, B, eta, 1, 2.2, 0.45)
        u2 = u0.with_values(2.0 * u0.values)
        b = pt.sobolev_poincare_report(u2, weight64, 2.0, 2.2, B, eta, 1, 2.2, 0.45)
        assert sp_ratio(a) == pytest.approx(sp_ratio(b), rel=1e-13)

    def test_out_of_range_r_rejected(self, weight64):
        # q < n here, so the admissible range is [1, (q_1)^*] with q^*
        u = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 64, lambda p: p[:, 0])
        B = g.ball([0.0, 0.0], 0.45)
        eta = u.with_values(np.ones(u.dims)[..., None])
        w = Weight(a=u.with_values(np.ones(u.dims)[..., None]), alpha=0.5)
        u0 = _centered(u, B, eta)
        with pytest.raises(g.GridError):
            pt.sobolev_poincare_report(u0, w, 1.2, 1.5, B, eta, 1, 100.0, 0.45)

    def test_high_order_intermediate_exponent(self):
        # l*q >= n with (p_l)^* = 6 finite and exceeded: r is admitted, its
        # implied exponent s = nr/(n + l r) = 60/32 lying in (p, q)
        u = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 64,
                          lambda p: np.sin(3 * p[:, 0]) * p[:, 1])
        a = u.with_values(np.abs(u.cell_centers()[..., 0])[..., None])
        w = Weight(a=a, alpha=1.0)
        B = g.ball([0.0, 0.0], 0.45)
        eta = u.with_values(np.ones(u.dims)[..., None])
        u0 = _centered(u, B, eta)
        assert math.isfinite(sp_ratio(pt.sobolev_poincare_report(u0, w, 1.5, 2.2, B, eta, 1, 30.0, 0.45)))

    def test_scaling_covariance(self):
        # (u(x), B_R) -> (u(sx), B_{R/s}) with a(sx), sampled on the 2x-finer
        # lattice so scaled cells correspond exactly: the ratio is invariant
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        scale = 2.0
        base = lambda p: np.sin(3 * p[:, 0]) + 0.5 * np.cos(2 * p[:, 1])
        u1 = g.create_grid(b, 96, base)
        u2 = g.create_grid(b, 192, lambda p: base(scale * p))
        # the weight rescales inside its class: a_s(x) = a(sx)/s^alpha,
        # which for the power weight reproduces the weight itself
        a1 = g.create_grid(b, 96, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
        a2 = g.create_grid(b, 192,
                           lambda p: np.linalg.norm(scale * p, axis=1) ** 0.5 / scale**0.5)
        w1 = Weight(a=a1, alpha=0.5)
        w2 = Weight(a=a2, alpha=0.5)
        outs = []
        for u, w, R in ((u1, w1, 0.4), (u2, w2, 0.4 / scale)):
            B = g.ball([0.0, 0.0], R)
            eta = u.with_values(np.ones(u.dims)[..., None])
            u0 = _centered(u, B, eta)
            outs.append(pt.sobolev_poincare_report(u0, w, 2.0, 2.2, B, eta, 1, 2.2, R))
        assert sp_ratio(outs[0]) == pytest.approx(sp_ratio(outs[1]), rel=1e-6)

    def test_unit_weight_second_term_dominated(self, corpus2_64):
        # for a = 1 the scaling term never flips the verdict
        B = g.ball([0.0, 0.0], 0.45)
        ones = corpus2_64[0].with_values(np.ones(corpus2_64[0].dims)[..., None])
        w = Weight(a=ones, alpha=0.5)
        ratios = []
        for f in corpus2_64[:10]:
            u0 = _centered(f, B, ones)
            out = pt.sobolev_poincare_report(u0, w, 2.0, 2.2, B, ones, 1, 2.2, 0.45)
            ratios.append(out)
        C = 2.0 * max(sp_ratio(o) for o in ratios)
        for lhs, rhs_weighted, rhs_scaling in ratios:
            with_term = lhs <= C * (rhs_weighted + rhs_scaling)
            without = lhs <= C * rhs_weighted
            assert with_term == without
            assert rhs_scaling <= rhs_weighted + 1e-12
