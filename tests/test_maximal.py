"""Maximal operators: pointwise values, structural inequalities, reports."""

import math

import numpy as np
import pytest

from dptool import grid as g
from dptool import maximal as mx
from dptool.corpus import fourier_corpus
from dptool.meanpoly import fit
from dptool.reporting import Check
from dptool.weights import Weight


def bump2(size=64, width=8.0):
    return g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), size,
                         lambda p: np.exp(-width * np.sum(p**2, axis=1)))


class TestMaximalFunction:
    def test_constant_is_fixed_point(self):
        u = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: np.ones(len(p)))
        M = mx.maximal_function(u, mx.MaximalSpec())
        assert np.abs(M.scalar() - 1.0).max() < 1e-12

    def test_positive_homogeneity_bitwise(self):
        f = bump2(48)
        M = mx.maximal_function(f, mx.MaximalSpec(beta=0.5))
        M2 = mx.maximal_function(f.with_values(2.0 * f.values), mx.MaximalSpec(beta=0.5))
        assert np.array_equal(M2.values, 2.0 * M.values)

    def test_indicator_interval_brute_force(self):
        # M f(3) for the indicator of [-1,1]: best interval (-1,3), value 1/2
        u = g.create_grid(g.box([-4.0], [4.0]), 256,
                          lambda p: (np.abs(p[:, 0]) <= 1.0).astype(float))
        M = mx.maximal_function(u, mx.MaximalSpec())
        x = u.axis_centers(0)
        val = float(M.scalar()[int(np.argmin(np.abs(x - 3.0)))])
        assert abs(val - 0.5) <= 2 * u.spacing

    def test_beta_out_of_range(self):
        u = bump2(16)
        with pytest.raises(g.GridError):
            mx.maximal_function(u, mx.MaximalSpec(beta=2.0))

    def test_restricted_dominates_input(self):
        f = bump2(48)
        B = g.ball([0.0, 0.0], 0.6)
        M = mx.maximal_function(f, mx.MaximalSpec(restriction=B))
        mask = B.mask_for(f)
        assert np.all(M.scalar()[mask] >= np.abs(f.scalar()[mask]) - 1e-13)

    def test_sublinearity(self):
        a = bump2(48)
        b = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 48,
                          lambda p: np.cos(3 * p[:, 0]) * np.sin(2 * p[:, 1]))
        Mab = mx.maximal_function(a.with_values(a.values + b.values), mx.MaximalSpec()).scalar()
        Ma = mx.maximal_function(a, mx.MaximalSpec()).scalar()
        Mb = mx.maximal_function(b, mx.MaximalSpec()).scalar()
        assert np.all(Mab <= Ma + Mb + 1e-11)

    def test_sandwich(self):
        f = bump2(64)
        Munc = mx.maximal_function(f, mx.MaximalSpec()).scalar()
        Mcen = mx.maximal_function(f, mx.MaximalSpec(mode="centered")).scalar()
        assert np.all(Munc >= Mcen - 1e-12)
        pos = Mcen > 0
        assert float((Munc[pos] / Mcen[pos]).max()) <= 2**2 * (1 + 0.05)


class TestMaximalStack:
    def test_empty_stack_rejected(self):
        with pytest.raises(g.GridError, match="at least one field"):
            mx.maximal_stack([], [])

    def test_length_mismatch_rejected(self):
        f = bump2(16)
        with pytest.raises(g.GridError, match="2 fields but 1 specs"):
            mx.maximal_stack([f, f], [mx.MaximalSpec()])

    @pytest.mark.parametrize("other", [
        g.create_grid(g.box([-1.0], [1.0]), 16, lambda p: np.ones(len(p))),  # n
        bump2(20),  # dims
        g.create_grid(g.box([-1.0, -0.5], [1.0, 1.5]), 16, lambda p: np.ones(len(p))),  # origin
        g.create_grid(g.box([-1.0, -1.0], [3.0, 3.0]), 16, lambda p: np.ones(len(p))),  # spacing
    ], ids=["n", "dims", "origin", "spacing"])
    def test_other_lattice_rejected(self, other):
        f = bump2(16)
        with pytest.raises(g.GridError, match="share one lattice"):
            mx.maximal_stack([f, other], [mx.MaximalSpec()] * 2)

    def test_mixed_mode_rejected(self):
        f = bump2(16)
        with pytest.raises(g.GridError, match="share one mode"):
            mx.maximal_stack([f, f], [mx.MaximalSpec(), mx.MaximalSpec(mode="centered")])


class TestIterated:
    def test_single_iteration_matches_restricted(self):
        f = bump2(32)
        B = g.ball([0.0, 0.0], 0.8)
        a = mx.maximal_function(f, mx.MaximalSpec(restriction=B, iterations=1))
        chi_f = f.with_values(np.where(B.mask_for(f)[..., None], f.values, 0.0))
        b = mx.maximal_function(chi_f, mx.MaximalSpec())
        assert np.array_equal(a.values, b.values)

    def test_constant_on_ball(self):
        f = g.create_grid(g.box([-1.0], [1.0]), 128, lambda p: np.ones(len(p)))
        B = g.ball([0.0], 0.5)
        m3 = mx.maximal_function(f, mx.MaximalSpec(restriction=B, iterations=3))
        mask = B.mask_for(f)
        # averages only shrink off the ball, so on B the value stays near 1
        assert m3.scalar()[mask].max() <= 1.0 + 1e-12

    def test_monotone_in_iterations(self):
        f = bump2(48)
        B = g.ball([0.0, 0.0], 0.7)
        mask = B.mask_for(f)
        prev = mx.maximal_function(f, mx.MaximalSpec(restriction=B, iterations=1))
        for ell in (2, 3):
            cur = mx.maximal_function(f, mx.MaximalSpec(restriction=B, iterations=ell))
            assert np.all(cur.scalar()[mask] >= prev.scalar()[mask] - 1e-12)
            prev = cur


class TestRatioSup:
    """``_ratio_sup`` is one float: the sup over den > 0, or inf when more
    than 1e-3 of the points have den <= 0 and num does not vanish."""

    @staticmethod
    def pair(excluded):
        den = np.linspace(1.0, 2.0, 2000)
        den[:excluded] = 0.0
        return 3.0 * den + 1.0, den

    def test_many_excluded_points_give_inf(self):
        num, den = self.pair(3)  # 3/2000 > 1e-3, num = 1 where den = 0
        assert mx._ratio_sup(num, den) == math.inf

    def test_many_excluded_points_with_vanishing_num_give_the_sup(self):
        _num, den = self.pair(3)
        assert mx._ratio_sup(np.zeros_like(den), den) == 0.0

    def test_few_excluded_points_give_the_sup_over_the_rest(self):
        num, den = self.pair(2)  # 2/2000 = 1e-3 is still few enough
        pos = den > 0
        assert mx._ratio_sup(num, den) == float((num[pos] / den[pos]).max())
        assert mx._ratio_sup(num, den) < math.inf


class TestComposition:
    def test_bound_and_stability(self):
        vals = []
        for size in (48, 96):
            f = bump2(size)
            sup = mx.composition_report([f], 0.5)
            assert Check.from_bound("composition", sup, mx.composition_bound(2, 0.5)).status == "pass"
            vals.append(sup)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.10

    def test_ball_indicator(self):
        f = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 64,
                          lambda p: (np.linalg.norm(p, axis=1) < 0.5).astype(float))
        sup = mx.composition_report([f], 1.0)
        assert Check.from_bound("composition", sup, mx.composition_bound(2, 1.0)).status == "pass"

    def test_corpus_bounded_by_propagated_constant(self):
        corpus = fourier_corpus(2, 10, 64, seed=0x5EED)
        worst = mx.composition_report(corpus, 1.0)
        assert worst == max(mx.composition_report([f], 1.0) for f in corpus)
        assert worst <= mx.composition_bound(2, 1.0)


class TestHedberg:
    def test_zero_function(self):
        u = g.create_grid(g.box([-1.0], [1.0]), 128, lambda p: np.zeros(len(p)))
        B = g.ball([0.0], 1.0)
        eta = u.with_values(np.ones(u.dims)[..., None])
        assert mx.hedberg_report(u, 1, B, eta, 1.0) == 0.0

    def test_linear_minus_mean_stable(self):
        ratios = []
        for size in (128, 256):
            u = g.create_grid(g.box([-1.0], [1.0]), size, lambda p: p[:, 0])
            B = g.ball([0.0], 1.0)
            eta = u.with_values(np.ones(u.dims)[..., None])
            mean = g.weighted_average(u, B, eta)
            u0 = u.with_values(u.values - mean)
            sup = mx.hedberg_report(u0, 1, B, eta, 1.0)
            assert Check.from_bound("hedberg", sup, math.inf).status == "pass"
            ratios.append(sup)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.20

    def test_corpus_recorded(self, corpus1_256):
        B = g.ball([0.0], 1.0)
        worst = 0.0
        for f in corpus1_256[:10]:
            eta = f.with_values(np.ones(f.dims)[..., None])
            P = fit(f, B, eta, 1, np.array([0.0]))
            u0 = f.with_values(f.values - P.coeffs[(0,)])
            sup = mx.hedberg_report(u0, 1, B, eta, 1.0)
            assert Check.from_bound("hedberg", sup, math.inf).status == "pass"
            worst = max(worst, sup)
        assert math.isfinite(worst) and worst < 50.0

    def test_violated_mean_precondition(self):
        u = g.create_grid(g.box([-1.0], [1.0]), 64, lambda p: p[:, 0] + 1.0)
        B = g.ball([0.0], 1.0)
        eta = u.with_values(np.ones(u.dims)[..., None])
        with pytest.raises(g.GridError, match="vanish"):
            mx.hedberg_report(u, 1, B, eta, 1.0)


class TestWeightedHedberg:
    def test_unit_weight(self):
        f = g.create_grid(g.box([-0.5], [0.5]), 128, lambda p: np.exp(-4 * p[:, 0] ** 2))
        B = g.ball([0.0], 0.4)
        ones = f.with_values(np.ones(f.dims)[..., None])
        w = Weight(a=ones, alpha=0.5)
        sup = mx.weighted_hedberg_report(f, w, 2.2, 0.2, 1, B, 0.4)
        assert Check.from_bound("weighted hedberg", sup, math.inf).status == "pass"
        assert sup <= 1.0 + 1e-9

    def test_zero_weight(self):
        f = g.create_grid(g.box([-0.5], [0.5]), 64, lambda p: np.exp(-4 * p[:, 0] ** 2))
        B = g.ball([0.0], 0.4)
        zero = f.with_values(np.zeros(f.dims)[..., None])
        w = Weight(a=zero, alpha=0.5)
        assert mx.weighted_hedberg_report(f, w, 2.2, 0.2, 1, B, 0.4) == 0.0

    def test_power_weight_recorded(self):
        f = g.create_grid(g.box([-0.5], [0.5]), 128,
                          lambda p: np.exp(-30 * (p[:, 0] - 0.2) ** 2))
        a = g.create_grid(g.box([-0.5], [0.5]), 128, lambda p: np.abs(p[:, 0]) ** 0.5)
        w = Weight(a=a, alpha=0.5)
        B = g.ball([0.0], 0.4)
        sup = mx.weighted_hedberg_report(f, w, 2.2, 0.2, 1, B, 0.4)
        assert Check.from_bound("weighted hedberg", sup, math.inf).status == "pass"

    def test_radius_above_one_rejected(self):
        f = g.create_grid(g.box([-2.0], [2.0]), 64, lambda p: np.exp(-p[:, 0] ** 2))
        ones = f.with_values(np.ones(f.dims)[..., None])
        w = Weight(a=ones, alpha=0.5)
        with pytest.raises(g.GridError):
            mx.weighted_hedberg_report(f, w, 2.2, 0.2, 1, g.ball([0.0], 1.5), 1.5)


class TestLsBound:
    def test_norm_ratios_recorded_over_s_range(self):
        corpus = fourier_corpus(1, 6, 256, seed=0x5EED)
        table = {}
        for s in (1.5, 2.0, 3.0):
            worst = 0.0
            for f in corpus:
                M = mx.maximal_function(f, mx.MaximalSpec())
                num = (np.abs(M.scalar()) ** s).sum() ** (1 / s)
                den = (np.abs(f.scalar()) ** s).sum() ** (1 / s)
                worst = max(worst, num / den)
            table[s] = worst
        assert all(math.isfinite(v) and v < 20 for v in table.values())
