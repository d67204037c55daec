"""Level-set identities, the iteration lemma, and self-improvement scans."""

import math

import numpy as np
import pytest

from dptool import gehring as ge
from dptool import grid as g
from dptool.reporting import Check


def holds(ratio):
    """An iteration-lemma ratio held against 1 at its tolerance 1e-12."""
    return Check.from_bound("iteration lemma", ratio, 1.0, 1e-12).status == "pass"


class TestLayerCake:
    def test_constant_square(self):
        h = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: np.full(len(p), 3.0))
        assert ge.layer_cake_check(h, 2.0, nodes=4000) <= 1e-8

    def test_constant_identity_power(self):
        h = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: np.full(len(p), 2.5))
        assert ge.layer_cake_check(h, 1.0, nodes=4000) <= 1e-10

    def test_ramp_half_power(self):
        h = g.create_grid(g.box([0.0], [1.0]), 256, lambda p: p[:, 0])
        assert ge.layer_cake_check(h, 0.5, nodes=10000) <= 1e-6

    def test_negative_exponent(self):
        h = g.create_grid(g.box([0.0], [1.0]), 256, lambda p: p[:, 0] + 0.01)
        assert ge.layer_cake_check(h, -0.5, nodes=10000) <= 1e-6

    def test_zero_exponent_rejected(self):
        h = g.create_grid(g.box([0.0], [1.0]), 16, lambda p: np.ones(len(p)))
        with pytest.raises(g.GridError):
            ge.layer_cake_check(h, 0.0, nodes=4000)


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
        assert holds(out["premise"]) and holds(out["conclusion"])

    def test_constructed_family(self):
        R0, R1, gamma, tau, C2 = 0.5, 1.5, 1.0, 0.3, 2.0
        radii = np.linspace(R0, R1 * 0.95, 40)
        hv = C2 / (R1 - radii) ** gamma
        out = ge.iteration_lemma_check(hv, radii, tau, 1.0, C2, gamma)
        assert holds(out["premise"]) and holds(out["conclusion"])
        assert out["conclusion"] <= 1.0

    def test_tau_zero_reduces_to_single_step(self):
        radii = np.linspace(1.0, 2.0, 10)
        hv = np.full(10, 0.5)
        out = ge.iteration_lemma_check(hv, radii, 0.0, 1.0, 1.0, 2.0)
        # c(0, gamma) = 2^gamma, so the bound is C1 + 2^gamma C2/(R1-R0)^gamma
        assert ge.iteration_constant(0.0, 2.0) == pytest.approx(2.0**2, abs=1e-12)
        assert out["conclusion"] == pytest.approx(0.5 / (1.0 + 4.0), rel=1e-15)
        assert holds(out["conclusion"])

    def test_premise_violation_reported(self):
        radii = np.linspace(1.0, 2.0, 10)
        hv = np.linspace(10.0, 0.0, 10)  # decreasing too fast for tau h(t)
        out = ge.iteration_lemma_check(hv, radii, 0.1, 0.01, 0.01, 1.0)
        assert not holds(out["premise"])


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
        out = ge.gehring_verify(f1, f2, cert, ge._ball_pair_family(f1, g.ball([0.0, 0.0], 1.0), cert.R0))
        assert out["premise_failures"] == 0
        assert out["conclusion_constant"] == pytest.approx(1.0, abs=1e-9)

    def test_power_function_premise_and_conclusion(self):
        s, kappa = 0.5, 0.5
        A_analytic = 3**s * (2 / (2 - s)) * ((2 - s * kappa) / 2) ** (1 / kappa)
        cert = ge.gehring_constants(2, 2.0 * A_analytic, kappa, 0.5, R0=0.2)
        f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 128,
                           lambda p: (np.linalg.norm(p, axis=1) + 1e-12) ** -s)
        f2 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 128, lambda p: np.full(len(p), 0.01))
        out = ge.gehring_verify(f1, f2, cert, ge._ball_pair_family(f1, g.ball([0.0, 0.0], 1.0), cert.R0))
        assert out["premise_pass_fraction"] >= 0.95
        assert out["A_required_max"] <= 2 * A_analytic
        assert math.isfinite(out["conclusion_constant"])

    def test_scaling_invariance_of_constant(self):
        f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 48,
                           lambda p: 1.0 + np.exp(-4 * np.sum(p**2, axis=1)))
        f2 = f1.with_values(np.zeros(f1.dims)[..., None])
        cert = ge.gehring_constants(2, 3.0, 0.5, 0.5, R0=0.25)
        family = ge._ball_pair_family(f1, None, cert.R0)
        a = ge.gehring_verify(f1, f2, cert, family)
        b = ge.gehring_verify(f1.with_values(2 * f1.values), f2, cert, family)
        assert a["conclusion_constant"] == pytest.approx(b["conclusion_constant"], rel=1e-12)

    def test_conditional_mode(self):
        f1 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 64,
                           lambda p: 1.0 + np.exp(-8 * np.sum(p**2, axis=1)))
        f2 = f1.with_values(np.zeros(f1.dims)[..., None])
        cert = ge.gehring_constants(2, 5.0, 0.5, 0.5, R0=0.25)
        out = ge.gehring_verify(f1, f2, cert, ge._ball_pair_family(f1, None, cert.R0), mode="conditional")
        # pairs where the big-ball average exceeds the small one are exempt
        assert out["premise_failures"] == 0
