"""Level-set identities, the iteration lemma, and self-improvement scans."""

import math

import numpy as np
import pytest

from dptool import gehring as ge
from dptool import grid as g


class TestLayerCake:
    def test_constant_square(self):
        h = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: np.full(len(p), 3.0))
        out = ge.layer_cake_check(h, 2.0)
        assert out["residual"] <= 1e-8

    def test_constant_identity_power(self):
        h = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: np.full(len(p), 2.5))
        assert ge.layer_cake_check(h, 1.0)["residual"] <= 1e-10

    def test_ramp_half_power(self):
        h = g.create_grid(g.box([0.0], [1.0]), 256, lambda p: p[:, 0])
        assert ge.layer_cake_check(h, 0.5, nodes=10000)["residual"] <= 1e-6

    def test_negative_exponent(self):
        h = g.create_grid(g.box([0.0], [1.0]), 256, lambda p: p[:, 0] + 0.01)
        assert ge.layer_cake_check(h, -0.5, nodes=10000)["residual"] <= 1e-6

    def test_zero_exponent_rejected(self):
        h = g.create_grid(g.box([0.0], [1.0]), 16, lambda p: np.ones(len(p)))
        with pytest.raises(g.GridError):
            ge.layer_cake_check(h, 0.0)


class TestIterationConstant:
    def test_geometric_series(self):
        assert abs(ge.iteration_constant(0.5, 0.0) - 2.0) < 1e-12

    def test_weighted_series_closed_form(self):
        # sum (i+1)(i+2) x^i = 2/(1-x)^3 at x = 1/2 gives 16
        assert abs(ge.iteration_constant(0.5, 1.0) - 16.0) < 1e-12

    def test_brute_force_cross_check(self):
        tau, gamma = 0.9, 2.0
        i = np.arange(2_000_000, dtype=float)
        brute = float(np.sum(tau**i * ((i + 1) * (i + 2)) ** gamma))
        assert abs(ge.iteration_constant(tau, gamma) - brute) / brute < 1e-9

    def test_tau_one_rejected(self):
        with pytest.raises(g.GridError):
            ge.iteration_constant(1.0, 0.0)


class TestIterationLemma:
    def test_zero_function(self):
        radii = np.linspace(1.0, 2.0, 20)
        out = ge.iteration_lemma_check(np.zeros(20), radii, 0.5, 1.0, 1.0, 2.0)
        assert out["premise_ok"] and out["conclusion_ok"]

    def test_constructed_family(self):
        R0, R1, gamma, tau, C2 = 0.5, 1.5, 1.0, 0.3, 2.0
        radii = np.linspace(R0, R1 * 0.95, 40)
        hv = C2 / (R1 - radii) ** gamma
        out = ge.iteration_lemma_check(hv, radii, tau, 1.0, C2, gamma)
        assert out["premise_ok"] and out["conclusion_ok"]
        assert out["h_R0"] <= out["bound"]

    def test_tau_zero_reduces_to_single_step(self):
        radii = np.linspace(1.0, 2.0, 10)
        hv = np.full(10, 0.5)
        out = ge.iteration_lemma_check(hv, radii, 0.0, 1.0, 1.0, 2.0)
        assert out["iteration_c"] == pytest.approx(2.0**2, abs=1e-12)
        assert out["conclusion_ok"]

    def test_premise_violation_reported(self):
        radii = np.linspace(1.0, 2.0, 10)
        hv = np.linspace(10.0, 0.0, 10)  # decreasing too fast for tau h(t)
        out = ge.iteration_lemma_check(hv, radii, 0.1, 0.01, 0.01, 1.0)
        assert not out["premise_ok"]
        assert out["conclusion_ok"] is None


class TestConstants:
    def test_reference_point(self):
        cert = ge.gehring_constants(1, 1.0, 0.5, 0.5)
        assert cert.d == 0.75
        assert cert.c1 == 10.0
        assert cert.c_star == 1000.0
        assert cert.eps_max == 5e-4

    def test_monotone_in_eps0(self):
        vals = [ge.gehring_constants(2, 2.0, 0.5, e).c_star for e in np.linspace(0.05, 1.0, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_eps_capped_by_eps0(self):
        for eps0 in (1e-4, 0.1, 1.0):
            cert = ge.gehring_constants(2, 0.01, 0.99, eps0)
            assert cert.eps_max <= eps0

    def test_absorption_exact(self):
        for A in (0.5, 1.0, 7.0):
            cert = ge.gehring_constants(2, A, 0.3, 0.25)
            assert A * cert.theta_g**cert.d + 0.25 <= 0.5 + 1e-12

    def test_input_validation(self):
        with pytest.raises(g.GridError):
            ge.gehring_constants(2, 1.0, 1.5, 0.5)
        with pytest.raises(g.GridError):
            ge.gehring_constants(2, -1.0, 0.5, 0.5)


class TestVerify:
    def test_constant_f1(self):
        f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 64, lambda p: np.full(len(p), 2.0))
        f2 = f1.with_values(np.zeros(f1.dims)[..., None])
        cert = ge.gehring_constants(2, 1.0, 0.5, 0.5, R0=0.25)
        out = ge.gehring_verify(f1, f2, cert, omega=g.ball([0.0, 0.0], 1.0))
        assert out["premise_failures"] == 0
        assert out["conclusion_constant"] == pytest.approx(1.0, abs=1e-9)

    def test_power_function_premise_and_conclusion(self):
        s, kappa = 0.5, 0.5
        A_analytic = 3**s * (2 / (2 - s)) * ((2 - s * kappa) / 2) ** (1 / kappa)
        cert = ge.gehring_constants(2, 2.0 * A_analytic, kappa, 0.5, R0=0.2)
        f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 128,
                           lambda p: (np.linalg.norm(p, axis=1) + 1e-12) ** -s)
        f2 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 128, lambda p: np.full(len(p), 0.01))
        out = ge.gehring_verify(f1, f2, cert, omega=g.ball([0.0, 0.0], 1.0))
        assert out["premise_pass_fraction"] >= 0.95
        assert out["A_required_max"] <= 2 * A_analytic
        assert math.isfinite(out["conclusion_constant"])

    def test_eps_outside_certificate_flagged(self):
        f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 32, lambda p: np.full(len(p), 1.0))
        f2 = f1.with_values(np.zeros(f1.dims)[..., None])
        cert = ge.gehring_constants(2, 1.0, 0.5, 0.5, R0=0.25)
        out = ge.gehring_verify(f1, f2, cert, eps=cert.eps_max * 10)
        assert out["outside_certificate"]

    def test_scaling_invariance_of_constant(self):
        f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 48,
                           lambda p: 1.0 + np.exp(-4 * np.sum(p**2, axis=1)))
        f2 = f1.with_values(np.zeros(f1.dims)[..., None])
        cert = ge.gehring_constants(2, 3.0, 0.5, 0.5, R0=0.25)
        a = ge.gehring_verify(f1, f2, cert)
        b = ge.gehring_verify(f1.with_values(2 * f1.values), f2, cert)
        assert a["conclusion_constant"] == pytest.approx(b["conclusion_constant"], rel=1e-12)

    def test_conditional_mode(self):
        f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 64,
                           lambda p: 1.0 + np.exp(-8 * np.sum(p**2, axis=1)))
        f2 = f1.with_values(np.zeros(f1.dims)[..., None])
        cert = ge.gehring_constants(2, 5.0, 0.5, 0.5, R0=0.25)
        out = ge.gehring_verify(f1, f2, cert, mode="conditional")
        # pairs where the big-ball average exceeds the small one are exempt
        assert out["premise_failures"] == 0


class TestExitRadii:
    def test_subcritical_constant_gives_empty_selection(self):
        f = g.create_grid(g.box([-1.0], [1.0]), 256, lambda p: np.full(len(p), 0.1))
        # the level floor exceeds any constant by the 15^n concentration
        # factor, so levels above it leave an empty super-level set
        lam_floor = 15.0 / (2 * (1.5 - 0.5)) * 0.1 * 2 * 1.0  # coarse upper shape
        out = ge.exit_radii(f, lam=2.0, r1=0.5, r2=1.5, center=[0.0])
        assert out["selected"] == []

    def test_level_below_floor_rejected(self):
        f = g.create_grid(g.box([-1.0], [1.0]), 128, lambda p: np.full(len(p), 1.0))
        with pytest.raises(g.GridError, match="floor"):
            ge.exit_radii(f, lam=0.5, r1=0.5, r2=1.5, center=[0.0])

    def test_spike_exit_radii_match_mass_oracle(self):
        # the window average of a near-delta spike is mass/(2 rho) plus the
        # background, so every exit radius sits at mass/(2 lambda) with a
        # correction controlled by the sample's offset from the spike
        f = g.create_grid(g.box([-1.0], [1.0]), 512,
                          lambda p: 500 * np.exp(-(p[:, 0] / 0.01) ** 2) + 0.01)
        lam = 150.0
        out = ge.exit_radii(f, lam=lam, r1=0.3, r2=1.0, center=[0.0],
                            sample_stride=1, max_points=200)
        rho = out["all_rho"]
        assert len(rho) >= 3
        mass = 500 * 0.01 * math.sqrt(math.pi)
        oracle = mass / (2 * lam)
        for r in rho.values():
            assert r == pytest.approx(oracle, rel=0.02)
        assert len(out["selected"]) == 1  # tripled balls of one cluster overlap

    def test_spike_exit_radii_build_no_full_grid_centers(self, monkeypatch):
        # each sampled point reads only its own window's centers
        f = g.create_grid(g.box([-1.0], [1.0]), 512,
                          lambda p: 500 * np.exp(-(p[:, 0] / 0.01) ** 2) + 0.01)
        calls = []
        full_grid = g.GridFunction.cell_centers
        monkeypatch.setattr(g.GridFunction, "cell_centers", lambda self: calls.append(1) or full_grid(self))
        out = ge.exit_radii(f, lam=150.0, r1=0.3, r2=1.0, center=[0.0], sample_stride=1, max_points=200)
        assert out["candidates"] >= 3
        assert calls == []

    def test_vitali_disjointness_exact(self):
        def spikes(p):
            out = np.full(len(p), 0.01)
            for cx, cy in ((0.0, 0.0), (0.25, 0.0), (-0.2, 0.15)):
                out += 200 * np.exp(-((p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2) / 0.015**2)
            return out

        f = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 96, spikes)
        out = ge.exit_radii(f, lam=120.0, r1=0.4, r2=1.0, center=[0.0, 0.0], sample_stride=1)
        assert out["candidates"] >= 1
        sel = out["selected"]
        assert len(sel) >= 1
        for i in range(len(sel)):
            for j in range(i + 1, len(sel)):
                d = np.linalg.norm(np.array(sel[i]["center"]) - np.array(sel[j]["center"]))
                assert d >= 3 * (sel[i]["rho"] + sel[j]["rho"]) - 1e-12
