"""Weighted mean-value polynomials: recursion, uniqueness, certified bounds."""

import math

import numpy as np
import pytest

from dptool import grid as g
from dptool import meanpoly as mp
from dptool.corpus import fourier_corpus
from dptool.reporting import Check
from dptool.truncation import smooth_cutoff


def unit_eta(u):
    return u.with_values(np.ones(u.dims)[..., None])


class TestFit:
    def test_polynomial_reproduction(self):
        # degree <= m-1 inputs are reproduced exactly (uniqueness)
        u = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 48,
                          lambda p: 1.0 + 2 * p[:, 0] - 3 * p[:, 1] + 0.5 * p[:, 0] * p[:, 1])
        B = g.ball([0.0, 0.0], 0.4)
        P = mp.fit(u, B, unit_eta(u), 3, np.array([0.0, 0.0]))
        assert abs(P.coeffs[(0, 0)][0] - 1.0) < 1e-12
        assert abs(P.coeffs[(1, 0)][0] - 2.0) < 1e-12
        assert abs(P.coeffs[(0, 1)][0] + 3.0) < 1e-12
        assert abs(P.coeffs[(1, 1)][0] - 0.5) < 1e-12

    def test_order_one_is_weighted_mean(self):
        u = g.create_grid(g.box([-1.0], [1.0]), 128, lambda p: np.cos(2 * p[:, 0]))
        B = g.ball([0.0], 0.8)
        eta = u.with_values((1 + 0.3 * u.axis_centers(0))[..., None])
        P = mp.fit(u, B, eta, 1, np.array([0.0]))
        assert P.coeffs[(0,)][0] == pytest.approx(g.weighted_average(u, B, eta)[0], abs=1e-14)

    def test_square_hand_recursion(self):
        # u = x^2 on (-1,1) with unit weight and m=2: slope 0, constant 1/3
        u = g.create_grid(g.box([-1.0], [1.0]), 2048, lambda p: p[:, 0] ** 2)
        whole = g.ball([0.0], 1.0)
        assert whole.mask_for(u).all()
        P = mp.fit(u, whole, unit_eta(u), 2, np.array([0.0]))
        assert abs(P.coeffs[(1,)][0]) < 1e-10
        assert abs(P.coeffs[(0,)][0] - 1.0 / 3.0) < 1e-6

    def test_degenerate_weight(self):
        u = g.create_grid(g.box([-1.0], [1.0]), 32, lambda p: p[:, 0])
        eta = u.with_values(np.zeros(u.dims)[..., None])
        whole = g.ball([0.0], 1.0)
        assert whole.mask_for(u).all()
        with pytest.raises(g.GridError, match="degenerate"):
            mp.fit(u, whole, eta, 1, np.array([0.0]))


class TestPolynomialAlgebra:
    def test_differentiate_constant(self):
        P = mp.MVPolynomial(center=np.zeros(2), m=1, coeffs={(0, 0): np.array([5.0])})
        D = P.differentiate((1, 0))
        assert np.all(D.coeffs[(0, 0)] == 0.0)

    def test_differentiate_linear(self):
        P = mp.MVPolynomial(center=np.zeros(1), m=2,
                            coeffs={(0,): np.array([1.0]), (1,): np.array([3.0])})
        D = P.differentiate((1,))
        assert D.coeffs[(0,)][0] == 3.0

    def test_mixed_derivative_of_xy(self):
        P = mp.MVPolynomial(center=np.zeros(2), m=3, coeffs={
            sig: np.array([1.0]) if sig == (1, 1) else np.array([0.0])
            for sig in g.multi_indices_upto(2, 2)
        })
        D = P.differentiate((1, 1))
        assert D.coeffs[(0, 0)][0] == 1.0

    def test_annihilation_returns_zero_polynomial(self):
        P = mp.MVPolynomial(center=np.zeros(1), m=2,
                            coeffs={(0,): np.array([1.0]), (1,): np.array([2.0])})
        D = P.differentiate((2,))
        assert all(np.all(v == 0) for v in D.coeffs.values())


class TestInvariants:
    def test_moment_matching(self, corpus2_64):
        B = g.ball([0.0, 0.0], 0.4)
        for f in corpus2_64[:5]:
            eta = unit_eta(f)
            P = mp.fit(f, B, eta, 2, np.array([0.0, 0.0]))
            assert mp.moment_residual(P, f, B, eta) < 1e-8

    def test_idempotence(self, corpus2_64):
        f = corpus2_64[0]
        B = g.ball([0.0, 0.0], 0.4)
        eta = unit_eta(f)
        P = mp.fit(f, B, eta, 3, np.array([0.0, 0.0]))
        P2 = mp.fit(P.sample(f), B, eta, 3, np.array([0.0, 0.0]))
        worst = max(float(np.abs(P.coeffs[s] - P2.coeffs[s]).max()) for s in P.coeffs)
        assert worst < 1e-12

    def test_linearity(self, corpus2_64):
        f1, f2 = corpus2_64[0], corpus2_64[1]
        B = g.ball([0.0, 0.0], 0.4)
        eta = unit_eta(f1)
        Pa = mp.fit(f1, B, eta, 2, np.array([0.0, 0.0]))
        Pb = mp.fit(f2, B, eta, 2, np.array([0.0, 0.0]))
        Pc = mp.fit(f1.with_values(2 * f1.values - 0.5 * f2.values), B, eta, 2, np.array([0.0, 0.0]))
        for s in Pa.coeffs:
            assert np.abs(2 * Pa.coeffs[s] - 0.5 * Pb.coeffs[s] - Pc.coeffs[s]).max() < 1e-10

    def test_center_covariance(self, corpus2_64):
        f = corpus2_64[2]
        B = g.ball([0.0, 0.0], 0.4)
        eta = unit_eta(f)
        P0 = mp.fit(f, B, eta, 3, np.array([0.0, 0.0]))
        P1 = mp.fit(f, B, eta, 3, np.array([0.1, -0.1]))
        pts = f.cell_centers()[B.mask_for(f)]
        assert np.abs(P0.evaluate(pts) - P1.evaluate(pts)).max() < 1e-10


class TestCoefficientBounds:
    def test_polynomial_input_finite(self):
        u = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 48,
                          lambda p: p[:, 0] + p[:, 1] ** 2)
        B = g.ball([0.0, 0.0], 0.3)
        eta = unit_eta(u)
        P = mp.fit(u, B, eta, 3, np.array([0.0, 0.0]))
        ratios = mp.coefficient_bounds_report(P, u, B, eta, 0.3)
        assert Check.from_bound("coefficient bounds", max(ratios.values()), math.inf).status == "pass"

    def test_corpus_recorded_and_stable(self):
        worst = {}
        for size in (64, 128):
            w = 0.0
            for f in fourier_corpus(2, 6, size, lo=-0.5, hi=0.5, seed=0x5EED):
                B = g.ball([0.0, 0.0], 0.35)
                eta = unit_eta(f)
                P = mp.fit(f, B, eta, 2, np.array([0.0, 0.0]))
                ratios = mp.coefficient_bounds_report(P, f, B, eta, 0.35)
                w = max(w, max(ratios.values()))
            worst[size] = w
        assert abs(worst[128] - worst[64]) / worst[64] < 0.2


class TestIntegrationByParts:
    def test_constant_order_zero_ratio_one(self):
        u = g.create_grid(g.box([-0.5], [0.5]), 256, lambda p: np.full(len(p), 2.0))
        B = g.ball([0.0], 0.4)
        eta = smooth_cutoff(u, [0.0], 0.2, 0.4)
        P = mp.fit(u, B, eta, 1, np.array([0.0]))
        ratios = mp.integration_by_parts_report(P, u, B, eta, 0.4)
        assert ratios[0] == pytest.approx(1.0, abs=1e-12)

    def test_square_second_derivative_controlled(self):
        u = g.create_grid(g.box([-0.5], [0.5]), 256, lambda p: p[:, 0] ** 2)
        B = g.ball([0.0], 0.4)
        eta = smooth_cutoff(u, [0.0], 0.2, 0.4)
        P = mp.fit(u, B, eta, 3, np.array([0.0]))
        ratios = mp.integration_by_parts_report(P, u, B, eta, 0.4)
        assert Check.from_bound("integration by parts", max(ratios.values()), math.inf).status == "pass"
        assert ratios[2] < 10.0

    def test_homogeneous_in_u(self):
        u = g.create_grid(g.box([-0.5], [0.5]), 128, lambda p: np.sin(4 * p[:, 0]))
        B = g.ball([0.0], 0.4)
        eta = smooth_cutoff(u, [0.0], 0.2, 0.4)
        P = mp.fit(u, B, eta, 2, np.array([0.0]))
        r1 = mp.integration_by_parts_report(P, u, B, eta, 0.4)
        u2 = u.with_values(3.0 * u.values)
        P2 = mp.fit(u2, B, eta, 2, np.array([0.0]))
        r2 = mp.integration_by_parts_report(P2, u2, B, eta, 0.4)
        for ell in r1:
            assert r1[ell] == pytest.approx(r2[ell], rel=1e-10)

    def test_bad_cutoff_rejected(self):
        # a one-cell spike: its second difference, 2 / h^2 = 32768, breaks
        # 2048 R^-2 = 12800 at order 2
        u = g.create_grid(g.box([-0.5], [0.5]), 128, lambda p: p[:, 0])
        B = g.ball([0.0], 0.4)
        spike = np.zeros(u.dims + (1,))
        spike[64] = 1.0
        eta = u.with_values(spike)
        P = mp.fit(u, B, eta, 2, np.array([0.0]))
        with pytest.raises(g.GridError, match="cutoff derivative bound fails at order 2"):
            mp.integration_by_parts_report(P, u, B, eta, 0.4)


class TestKernelBound:
    def test_own_polynomial_gives_zero(self):
        u = g.create_grid(g.box([-0.5], [0.5]), 128, lambda p: 1.0 + 0.5 * p[:, 0])
        B = g.ball([0.0], 0.4)
        eta = smooth_cutoff(u, [0.0], 0.25, 0.4)
        assert mp.kernel_bound_report(u, B, eta, 1, 0.4) < 1e-8

    def test_corpus_recorded_and_stable(self):
        vals = []
        for size in (128, 256):
            worst = 0.0
            for f in fourier_corpus(1, 6, size, seed=0x5EED):
                B = g.ball([0.0], 0.6)
                eta = smooth_cutoff(f, [0.0], 0.35, 0.6)
                sup = mp.kernel_bound_report(f, B, eta, 1, 0.6)
                assert Check.from_bound("kernel bound", sup, math.inf).status == "pass"
                worst = max(worst, sup)
            vals.append(worst)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.2

    def test_homogeneity(self):
        f = fourier_corpus(1, 1, 128, seed=0x5EED)[0]
        B = g.ball([0.0], 0.6)
        eta = smooth_cutoff(f, [0.0], 0.35, 0.6)
        a = mp.kernel_bound_report(f, B, eta, 1, 0.6)
        b = mp.kernel_bound_report(f.with_values(2 * f.values), B, eta, 1, 0.6)
        assert a == pytest.approx(b, rel=1e-10)
