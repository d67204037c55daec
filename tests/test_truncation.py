"""Lipschitz truncation: gauge assembly, level geometry, blending, bounds."""

import math

import numpy as np
import pytest

from dptool import grid as g
from dptool import exponents as ex
from dptool import truncation as tr
from dptool.grid import derivative_norm, multi_indices, partial_derivative
from dptool.suites import truncation_fixture
from dptool.weights import Weight


@pytest.fixture(scope="module")
def fixture96():
    return truncation_fixture(128)


@pytest.fixture(scope="module")
def goodset96(fixture96):
    u, w, cfg, der, tc, data = fixture96
    return tr.assemble_g(u, w, cfg, der, tc, data=data)


@pytest.fixture(scope="module")
def result96(fixture96, goodset96):
    u, w, cfg, der, tc, data = fixture96
    tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lambda_mult=1.2, delta=tc.delta)
    return tr.truncate(u, w, cfg, der, tcm, data=data, goodset=goodset96)


def zero_fixture(size=48):
    b = g.box([-0.5, -0.5], [0.5, 0.5])
    u = g.create_grid(b, size, lambda p: np.zeros(len(p)))
    a = g.create_grid(b, size, lambda p: np.linalg.norm(p, axis=1) ** 3)
    w = Weight(a=a, alpha=3.0, seminorm_estimate=4.0)
    cfg = ex.ExponentConfig(n=2, m=1, N=1, p=2.0, q=2.2, alpha=3.0, a_seminorm=4.0)
    der = ex.make_derived(cfg, {"p": (2.5,), "q": (2.5,)}, delta0=0.8)
    tc = tr.TruncationConfig(center=np.array([0.0, 0.0]), R=0.12, delta=0.9)
    data = tr.default_data(u, cfg)
    zero = u.with_values(np.zeros(u.dims)[..., None])
    for r in ("p", "q"):
        data["g"][(r, cfg.m)] = zero
    return u, w, cfg, der, tc, data


class TestAssemble:
    def test_zero_data_gives_zero_gauge(self):
        u, w, cfg, der, tc, data = zero_fixture()
        gs = tr.assemble_g(u, w, cfg, der, tc, data=data)
        assert np.all(gs.g.scalar() == 0.0)
        assert np.all(gs.G.scalar() == 0.0)

    def test_gauge_average_controlled_by_energy_and_majorant(self, fixture96, goodset96):
        # the 3R-average of G^delta is bounded by the top-order energy plus
        # the majorant, with the implied constant recorded
        u, w, cfg, der, tc, data = fixture96
        gs = goodset96
        B3 = g.ball(tc.center, 3 * tc.R)
        from dptool.weights import double_phase_field
        Hm = double_phase_field(derivative_norm(u, cfg.m), w, der, cfg.q, cfg.m)
        # the gauge's majorant: F0's fractional terms cut by psi, the
        # whole-box terms uncut
        outs = tr._maximal_chains(u, tr._majorant_chains(gs.dnorms, gs.H, cfg, der, gs.psi.scalar(), 1.0))
        F = u.with_values(tr._majorant(w, cfg, der, data, outs)[..., None])
        lhs = float(g.mean_over(gs.G, B3, power=gs.delta)[0])
        rhs = float(g.mean_over(Hm, B3, power=gs.delta)[0]) + float(
            g.mean_over(F, B3, power=gs.delta)[0]
        )
        c = lhs / rhs
        assert math.isfinite(c)
        assert c < 50.0

    def test_monotone_under_nested_bumps(self):
        u0, w, cfg, der, tc, data = zero_fixture(48)
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        data = tr.default_data(u0, cfg)
        outs = []
        for amp in (1.0, 2.0):
            u = g.create_grid(b, 48, lambda p: amp * np.exp(-8 * np.sum(p**2, axis=1)))
            gs = tr.assemble_g(u, w, cfg, der, tc, data=data)
            outs.append(gs.G.scalar())
        assert np.all(outs[1] >= outs[0] - 1e-12)


class TestLambdaFloor:
    def test_zero_gauge_floor(self):
        u, w, cfg, der, tc, data = zero_fixture()
        gs = tr.assemble_g(u, w, cfg, der, tc, data=data)
        floor = tr.lambda_floor(gs, u, tc)
        assert floor["lambda0"] == pytest.approx(6.0**2, rel=1e-12)

    def test_constant_gauge_arithmetic(self):
        # G = 1 on the 3R ball gives 6^n * 1 + 6^n = 72 at n = 2
        u, w, cfg, der, tc, data = zero_fixture()
        ones = u.with_values(np.ones(u.dims)[..., None])
        gs = tr.GoodSetFields(g=ones, G=ones, F0=ones, dnorms={}, H={},
                              psi=ones, delta=0.9, delta0=0.8)
        floor = tr.lambda_floor(gs, u, tc)
        assert floor["lambda0"] == pytest.approx(72.0, rel=1e-12)

    def test_containment(self, fixture96, goodset96):
        u, w, cfg, der, tc, data = fixture96
        floor = tr.lambda_floor(goodset96, u, tc, probe_mults=(1.01, 1.5, 4.0))
        assert all(floor["containment"].values())


class TestLevelSet:
    def test_level_above_max(self, goodset96):
        out = tr.level_set(goodset96, float(goodset96.G.scalar().max()) * 2)
        assert out["good_mask"].all()

    def test_level_below_min(self, goodset96):
        gmin = float(goodset96.G.scalar().min())
        if gmin > 0:
            out = tr.level_set(goodset96, gmin * 0.5)
            assert not out["good_mask"].any()

    def test_boundary_fraction_shrinks(self):
        # smooth gauge: straddle fraction roughly halves from coarse to fine
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        G = g.create_grid(b, 128, lambda p: np.exp(-6 * np.sum(p**2, axis=1)))
        out = tr.level_set(G, 0.5)
        ratio = out["straddle_fraction"] / out["straddle_fraction_coarse"]
        assert 0.35 <= ratio <= 0.65
        assert out["shrinks_under_refinement"]


class TestTruncate:
    def test_bitwise_on_good_set(self, result96):
        res = result96
        assert res.bad_mask.any()
        assert bool((res.v_lambda.values[res.good_mask] == res.v.values[res.good_mask]).all())

    def test_level_above_sup_short_circuits(self, fixture96, goodset96):
        u, w, cfg, der, tc, data = fixture96
        lam = float(goodset96.G.scalar().max()) * 2
        tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lam=lam, delta=tc.delta)
        res = tr.truncate(u, w, cfg, der, tcm, data=data, goodset=goodset96)
        assert len(res.cover) == 0
        assert np.array_equal(res.v_lambda.values, res.v.values)

    def test_blend_matches_neighbor_expansion(self, result96):
        # on each 3/4-ball the truncation equals the partition blend of the
        # local polynomials (both assembled independently here)
        res = result96
        centers = res.v.cell_centers().reshape(-1, res.v.n)
        vlam = res.v_lambda.values.reshape(-1, res.v.components)
        worst = 0.0
        for i in range(len(res.cover)):
            cells = res.ball_cells[i]
            if len(cells) == 0:
                continue
            pts = centers[cells]
            blend = np.zeros((len(cells), res.v.components))
            for j in res.cover.neighbors[i]:
                if res.local_polys[int(j)] is None:
                    continue
                psi_j = res.pou.psi_values(int(j), pts)
                blend += res.local_polys[int(j)].evaluate(pts) * psi_j[:, None]
            worst = max(worst, float(np.abs(blend - vlam[cells]).max()))
        assert worst < 1e-10

    def test_derivative_identity_between_representations(self, result96):
        # grid derivatives of the blend assembled via the definition and via
        # the neighbor expansion agree wherever both are defined
        res = result96
        direct = res.v_lambda
        alt_vals = res.v.values.reshape(-1, res.v.components).copy()
        centers = res.v.cell_centers().reshape(-1, res.v.n)
        for i in range(len(res.cover)):
            cells = res.ball_cells[i]
            if len(cells) == 0 or res.local_polys[i] is None:
                continue
            psi_i = res.ball_psi[i]
            alt_vals[cells] -= (
                res.v.values.reshape(-1, res.v.components)[cells]
                - res.local_polys[i].evaluate(centers[cells])
            ) * psi_i[:, None]
        alt = res.v.with_values(alt_vals.reshape(res.v.dims + (res.v.components,)))
        for sig in multi_indices(res.v.n, 1):
            da = partial_derivative(direct, sig).values
            db = partial_derivative(alt, sig).values
            assert np.abs(da - db).max() < 1e-8

    def test_support_inside_4R(self, result96):
        res = result96
        d = np.linalg.norm(res.v.cell_centers() - res.config.center, axis=-1)
        outside = d >= 4 * res.config.R
        assert np.abs(res.v_lambda.values[outside]).max() == 0.0

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, fixture96, goodset96, lam):
        u, w, cfg, der, tc, data = fixture96
        tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lam=lam, delta=tc.delta)
        with pytest.raises(g.GridError, match="finite"):
            tr.truncate(u, w, cfg, der, tcm, data=data, goodset=goodset96)

    def test_level_not_above_floor_rejected(self, fixture96, goodset96):
        u, w, cfg, der, tc, data = fixture96
        tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lam=1.0, delta=tc.delta)
        with pytest.raises(g.GridError, match="floor"):
            tr.truncate(u, w, cfg, der, tcm, data=data, goodset=goodset96)


class TestReports:
    def test_zero_input_zero_ratios(self):
        u, w, cfg, der, tc, data = zero_fixture()
        gs = tr.assemble_g(u, w, cfg, der, tc, data=data)
        # gauge vanishes identically: everything above any positive level
        tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lam=100.0, delta=0.9)
        res = tr.truncate(u, w, cfg, der, tcm, data=data, goodset=gs)
        rep = tr.derivative_bounds_report(res)
        assert rep["empty_bad_set"]

    def test_derivative_bounds_lambda_robust(self, fixture96, goodset96):
        u, w, cfg, der, tc, data = fixture96
        series = {}
        for mult in (1.1, 2.0, 4.0):
            tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lambda_mult=mult, delta=tc.delta)
            res = tr.truncate(u, w, cfg, der, tcm, data=data, goodset=goodset96)
            assert res.bad_mask.any()
            rep = tr.derivative_bounds_report(res)
            for key, val in rep["c1"].items():
                assert math.isfinite(val)
                series.setdefault(("c1",) + key, []).append(val)
            for key, val in rep["c2"].items():
                assert math.isfinite(val)
        for key, vals in series.items():
            for a, b in zip(vals, vals[1:]):
                if a > 0:
                    assert (b - a) / a <= 0.25

    def test_oscillation_finite_and_robust(self, fixture96, goodset96):
        u, w, cfg, der, tc, data = fixture96
        prev = None
        for mult in (1.1, 2.0):
            tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lambda_mult=mult, delta=tc.delta)
            res = tr.truncate(u, w, cfg, der, tcm, data=data, goodset=goodset96)
            rep = tr.oscillation_report(res)
            vals = rep["max_ratio"]
            assert all(math.isfinite(v) for v in vals.values())
            if prev is not None:
                for ell, v in vals.items():
                    if prev[ell] > 0:
                        assert (v - prev[ell]) / prev[ell] <= 0.25
            prev = vals

    def test_polynomial_transfer(self, fixture96, goodset96, monkeypatch):
        # the fixture's bad set gets one-cell balls with singleton neighbour
        # sets; a disc's cover has balls that overlap, so pairs are compared
        u, w, cfg, der, tc, data = fixture96
        cover = tr.cover
        monkeypatch.setattr(tr, "cover", lambda grid, _bad, R: cover(grid, g.ball(tc.center, 2 * R).mask_for(grid), R))
        tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lambda_mult=1.2, delta=tc.delta)
        res = tr.truncate(u, w, cfg, der, tcm, data=data, goodset=goodset96)
        assert max(len(a) for a in res.cover.neighbors) > 1
        rep = tr.polynomial_transfer_report(res)
        assert rep["pairs"] > 0 and rep["max_ratio"]
        assert all(math.isfinite(v) for v in rep["max_ratio"].values())

    def test_transfer_singleton_exact(self, fixture96, goodset96, monkeypatch):
        # a cover with one ball has no neighbour pair to compare
        u, w, cfg, der, tc, data = fixture96
        from dptool.whitney import WhitneyCover
        center = u.cell_centers()[64, 64]
        one_ball = WhitneyCover(center[None], np.array([0.05]), tc.R)
        monkeypatch.setattr(tr, "cover", lambda grid, _bad, R: one_ball)
        tcm = tr.TruncationConfig(center=tc.center, R=tc.R, lambda_mult=1.2, delta=tc.delta)
        res = tr.truncate(u, w, cfg, der, tcm, data=data, goodset=goodset96)
        assert [a.tolist() for a in res.cover.neighbors] == [[0]]
        rep = tr.polynomial_transfer_report(res)
        assert rep["pairs"] == 0 and rep["max_ratio"] == {}

    def test_campanato_finite(self, result96):
        rep = tr.admissibility_report(result96)
        assert all(math.isfinite(v) for v in rep["max_ratio"].values())
        assert rep["test_centers"] > 0


class TestJordanPerturbation:
    def test_perturbation_is_deterministic(self, goodset96):
        lam = float(np.quantile(goodset96.G.scalar(), 0.9))
        a = tr.level_set(goodset96, lam)
        b = tr.level_set(goodset96, lam)
        assert a["lambda"] == b["lambda"]
        assert np.array_equal(a["good_mask"], b["good_mask"])
