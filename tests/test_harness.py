"""End-to-end pipeline: model residuals, the energy exponent delta_hat, the
reverse-Hoelder scan and the self-improvement chain."""

import math

import numpy as np
import pytest

from dptool import grid as g
from dptool import exponents as ex
from dptool import gehring as ge
from dptool import harness as hn
from dptool import truncation as tr
from dptool.weights import Weight


@pytest.fixture(scope="module")
def model2d(weight64_mod):
    b = g.box([-0.5, -0.5], [0.5, 0.5])
    u = g.create_grid(b, 64, lambda p: np.sin(4 * p[:, 0]) * np.cos(3 * p[:, 1]) + 0.3 * p[:, 0] ** 2)
    cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)
    return u, weight64_mod, cfg


@pytest.fixture(scope="module")
def weight64_mod():
    from dptool.weights import regularize
    b = g.box([-0.5, -0.5], [0.5, 0.5])
    a = g.create_grid(b, 64, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
    return Weight(a=regularize(a, 0.5, diverging=False), alpha=0.5)


def bump_test_function(u, radius=0.3):
    x = u.cell_centers()
    vals = np.prod(np.maximum(radius - np.abs(x), 0.0) ** 2, axis=-1)
    return u.with_values(vals[..., None])


class TestModelResidual:
    def test_linear_flux_divergence_free(self):
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        u = g.create_grid(b, 64, lambda p: 2 * p[:, 0] - p[:, 1])
        a = g.create_grid(b, 64, lambda p: np.full(len(p), 0.7))
        w = Weight(a=a, alpha=0.5)
        phi = bump_test_function(u)
        r = hn.model_residual(u, w, 2.0, 2.2, phi)
        phi_norm = float(np.abs(phi.values).max())
        assert abs(r) <= 1e-8 * phi_norm

    def test_harmonic_residual_second_order(self):
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        vals = []
        for size in (48, 96):
            u = g.create_grid(b, size, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
            a = g.create_grid(b, size, lambda p: np.zeros(len(p)))
            w = Weight(a=a, alpha=0.5)
            # an oscillatory test function keeps the discrete residual nonzero
            x = u.cell_centers()
            phi_vals = np.prod(np.maximum(0.3 - np.abs(x), 0.0) ** 2, axis=-1) * np.sin(7 * x[..., 0])
            phi = u.with_values(phi_vals[..., None])
            vals.append(abs(hn.model_residual(u, w, 2.0, 2.0, phi)))
        if vals[1] > 1e-14:
            assert vals[0] / vals[1] > 2.0

    def test_kink_negative_control(self):
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        u = g.create_grid(b, 64, lambda p: np.abs(p[:, 0]))
        a = g.create_grid(b, 64, lambda p: np.zeros(len(p)))
        w = Weight(a=a, alpha=0.5)
        phi = bump_test_function(u)
        r = hn.model_residual(u, w, 2.0, 2.0, phi)
        assert abs(r) > 1e-4

    def test_linear_in_test_function(self, model2d):
        u, w, cfg = model2d
        phi = bump_test_function(u)
        r1 = hn.model_residual(u, w, 2.0, 2.2, phi)
        r2 = hn.model_residual(u, w, 2.0, 2.2, phi.with_values(2 * phi.values))
        assert r2 == pytest.approx(2 * r1, rel=1e-12)

    def test_support_margin_enforced(self, model2d):
        u, w, cfg = model2d
        phi = u.with_values(np.ones(u.dims)[..., None])
        with pytest.raises(g.GridError, match="margin"):
            hn.model_residual(u, w, 2.0, 2.2, phi)
        # with 4 cells an axis every cell lies in the margin
        small = g.create_grid(g.box([-0.5, -0.5], [0.5, 0.5]), 4, lambda p: p[:, 0])
        inner = np.zeros(small.dims + (1,))
        inner[1:3, 1:3] = 1.0
        with pytest.raises(g.GridError, match="margin"):
            hn.model_residual(small, Weight(a=small.with_values(np.ones(small.dims)), alpha=0.5), 2.0, 2.2,
                              small.with_values(inner))

    @pytest.mark.parametrize("m", [1, 2])
    def test_flux_builds_the_derivative_array_once(self, model2d, monkeypatch, m):
        """At m = 1 the residual makes 4 ``partial_derivative`` calls, two
        for D u and two for D phi, and the flux is bitwise the one whose
        weight takes the norm from ``derivative_norm``, which builds the
        array a second time."""
        u, w, cfg = model2d
        partial, calls = g.partial_derivative, []
        monkeypatch.setattr(g, "partial_derivative", lambda f, sig: calls.append(sig) or partial(f, sig))
        hn.model_residual(u, w, 2.0, 2.2, bump_test_function(u), m)
        assert len(calls) == 2 * len(g.multi_indices(u.n, m))
        dnorm = g.derivative_norm(u, m).scalar()
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where(dnorm > 0, dnorm ** (2.2 - 2.0) + w.a.scalar() * dnorm ** (3.0 - 2.0), 0.0)
        flux = hn.model_flux(u, w, 2.2, 3.0, m)
        assert list(flux) == g.multi_indices(u.n, m)
        for sig, d in g.derivative_array(u, m).items():
            assert flux[sig].tobytes() == (d.values * weight[..., None]).tobytes(), sig


class TestDeltaHat:
    def test_model_case(self):
        # q_* > 1 = p_* branch: (min((1+p)/2, q_*), q_*)
        got = hn.delta_hat(2, 2.0, 2.2, 0.5)
        q_star = 2 * 2.2 / 4.2
        assert got == pytest.approx(max(q_star / 2.0, q_star / 2.2), rel=1e-14)

    def test_supercritical_branch(self):
        # both duals above one
        got = hn.delta_hat(3, 3.0, 3.3, 0.5)
        p_star, q_star = 3 * 3 / 6, 3 * 3.3 / 6.3
        assert got == pytest.approx(max(p_star / 3.0, q_star / 3.3), rel=1e-14)

    def test_small_exponent_branch(self):
        # q_* = 1: both hatted exponents synthesized
        got = hn.delta_hat(2, 1.2, 1.3, 0.5)
        phat = (1 + 1.2) / 2
        qhat = min((1 + 1.3) / 2, (1 + 0.5 / (2 * 1.3)) * phat)
        assert got == pytest.approx(max(phat / 1.2, qhat / 1.3), rel=1e-14)

    def test_below_one(self):
        for args in ((2, 2.0, 2.2, 0.5), (2, 1.2, 1.3, 0.5), (3, 3.0, 3.3, 0.5)):
            assert 0 < hn.delta_hat(*args) < 1


def scans_and_terms(monkeypatch, u, weight, cfg, der):
    """``energy_scans`` on B(0, 0.48) at R0 0.1, with the per-ball arrays
    its walk measured."""
    walks = []
    walk = hn._energy_walk
    monkeypatch.setattr(hn, "_energy_walk", lambda *args: walks.append(walk(*args)) or walks[-1])
    scans = hn.energy_scans(u, weight, cfg, der, g.ball([0.0, 0.0], 0.48), R0=0.1)
    return scans, walks[0]


class TestScans:
    def test_zero_solution_trivial(self, weight64_mod, monkeypatch):
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        u = g.create_grid(b, 64, lambda p: np.zeros(len(p)))
        cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)
        der = ex.derive(cfg)
        scans, terms = scans_and_terms(monkeypatch, u, weight64_mod, cfg, der)
        assert len(terms["lhs"]) == len(ge._ball_pair_family(u, g.ball([0.0, 0.0], 0.48), 0.1)[1]) > 0
        assert not terms["lhs"].any()
        assert scans["constant"] == 0.0

    def test_polynomial_top_energy_vanishes(self, weight64_mod, monkeypatch):
        # degree m-1 input at m=2: the top derivative vanishes, so the
        # energy is 0 on every ball
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        u = g.create_grid(b, 64, lambda p: 1.0 + 2 * p[:, 0] - p[:, 1])
        cfg = ex.ExponentConfig(n=2, m=2, p=2.0, q=2.2, alpha=0.5)
        der = ex.derive(cfg)
        _scans, terms = scans_and_terms(monkeypatch, u, weight64_mod, cfg, der)
        assert len(terms["lhs"]) > 0
        assert np.all(terms["lhs"] < 1e-18)

    def test_scan_constants_refinement_stable(self):
        consts = []
        for size in (64, 128):
            b = g.box([-0.5, -0.5], [0.5, 0.5])
            u = g.create_grid(b, size, lambda p: np.sin(4 * p[:, 0]) * np.cos(3 * p[:, 1]))
            a = g.create_grid(b, size, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
            w = Weight(a=a, alpha=0.5)
            cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)
            der = ex.derive(cfg)
            out = hn.energy_scans(u, w, cfg, der, g.ball([0.0, 0.0], 0.48), R0=0.1)
            consts.append(out["constant"])
        assert abs(consts[1] - consts[0]) / consts[0] < 0.25

    def test_reverse_holder_packaging(self, model2d):
        u, w, cfg = model2d
        der = ex.derive(cfg)
        out = hn.energy_scans(u, w, cfg, der, g.ball([0.0, 0.0], 0.48), R0=0.1)
        assert 0 < out["kappa"] < 1
        # the tail coefficient 1/2 of this half is the certificate's theta_rh
        assert ge.gehring_constants(2, 1.0, out["kappa"], 0.5).theta_rh == ge._THETA_RH == 0.5
        assert math.isfinite(out["constant"])
        assert np.all(out["f1"].scalar() >= 0) and np.all(out["f2"].scalar() >= 0)

    def test_constant_energy_passes_with_slack(self, weight64_mod):
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        u = g.create_grid(b, 64, lambda p: p[:, 0])  # H_m constant-ish
        cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)
        der = ex.derive(cfg)
        out = hn.energy_scans(u, weight64_mod, cfg, der, g.ball([0.0, 0.0], 0.48), R0=0.1)
        assert math.isfinite(out["constant"])


def verified(monkeypatch):
    """The results of every ``gehring_verify`` call ``self_improve`` makes."""
    results = []
    verify = hn.gehring_verify
    monkeypatch.setattr(hn, "gehring_verify", lambda *args, **kw: results.append(verify(*args, **kw)) or results[-1])
    return results


class TestSelfImprove:
    def test_scan_stages_take_one_energy_scans_call(self, model2d, monkeypatch):
        # the scan family is walked once: one row per ball, and the
        # reverse-Hoelder stage is the result of one energy_scans call
        u, w, cfg = model2d
        omega = g.ball([0.0, 0.0], 0.48)
        _centers, R = ge._ball_pair_family(u, omega, 0.1)
        balls = []
        ball_rows = hn._ball_rows

        def counting(*args):
            for ids, rows in ball_rows(*args):
                balls.extend(ids.tolist())
                yield ids, rows

        monkeypatch.setattr(hn, "_ball_rows", counting)
        results = verified(monkeypatch)
        stages = hn.self_improve(u, w, cfg, omega, R0=0.1)["stages"]
        assert sorted(balls) == list(range(len(R))) and len(R) > 0
        rh = hn.energy_scans(u, w, cfg, ex.derive(cfg), omega, R0=0.1)
        assert stages["reverse_holder"] == {k: rh[k] for k in ("constant", "kappa")}
        # gehring_verify walks the same family as the scans
        assert [r["pairs"] for r in results] == [len(R)]

    def test_family_is_built_once(self, model2d, monkeypatch):
        # energy_scans builds the ball-pair family, and gehring_verify walks
        # that same family instead of building its own
        u, w, cfg = model2d
        built, walked = [], []
        family, walk = ge._ball_pair_family, ge._gehring_walk

        def building(*args):
            built.append(family(*args))
            return built[-1]

        monkeypatch.setattr(hn, "_ball_pair_family", building)
        monkeypatch.setattr(ge, "_ball_pair_family", building)
        monkeypatch.setattr(ge, "_gehring_walk", lambda *args: walked.append(args[3]) or walk(*args))
        assert hn.self_improve(u, w, cfg, g.ball([0.0, 0.0], 0.48), R0=0.1)["status"] == "pass"
        assert len(built) == 1 and len(walked) == 1 and walked[0] is built[0]

    def test_empty_family_is_named(self, model2d):
        # R0 = 0.05 is below four cell widths (h = 1/64): no radius is scanned
        u, w, cfg = model2d
        with pytest.raises(g.GridError, match="^no admissible ball pairs: domain too small for R0$"):
            hn.self_improve(u, w, cfg, g.ball([0.0, 0.0], 0.48), R0=0.05)

    def test_full_chain(self, model2d):
        u, w, cfg = model2d
        out = hn.self_improve(u, w, cfg, g.ball([0.0, 0.0], 0.48), R0=0.1)
        assert out["status"] == "pass" and out["failed_stage"] is None
        assert out["stages"]["certificate"]["eps_max"] > 0

    def test_internal_consistency_gate(self, model2d, monkeypatch):
        # the measured reverse-Hoelder output feeds the premise verbatim, so
        # the premise holds on every scanned ball by construction
        u, w, cfg = model2d
        results = verified(monkeypatch)
        hn.self_improve(u, w, cfg, g.ball([0.0, 0.0], 0.48), R0=0.1)
        assert [(r["premise_failures"], r["premise_pass_fraction"]) for r in results] == [(0, 1.0)]

    def test_kappa_to_one_collapses_epsilon(self, model2d):
        # the run's certificate with kappa -> 1: A and eps0 do not depend on
        # kappa
        u, w, cfg = model2d
        c = hn.self_improve(u, w, cfg, g.ball([0.0, 0.0], 0.48), R0=0.1)["stages"]["certificate"]
        cert = ge.gehring_constants(c["n"], c["A"], 1 - 1e-9, c["eps0"], R0=c["R0"])
        assert cert.eps_max <= 1e-9

    def test_corollary_mode(self, model2d):
        u, w, cfg0 = model2d
        cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5, beta_src=1.0)
        out = hn.self_improve(u, w, cfg, g.ball([0.0, 0.0], 0.48), R0=0.1)
        # the unit target takes eps0 from the scan exponent, not from delta0
        assert out["status"] == "pass"
        assert out["stages"]["certificate"]["eps0"] == 1.0 / tr.scan_delta(ex.derive(cfg).delta0) - 1.0

    def test_hand_picked_block_gives_wider_epsilon(self, model2d):
        u, w_half, _ = model2d
        b = g.box([-0.5, -0.5], [0.5, 0.5])
        a3 = g.create_grid(b, 64, lambda p: np.linalg.norm(p, axis=1) ** 3)
        w = Weight(a=a3, alpha=3.0)
        cfg = ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=3.0)
        der = ex.make_derived(cfg, {"p": (2.5,), "q": (2.5,)}, delta0=0.8)
        out = hn.self_improve(u, w, cfg, g.ball([0.0, 0.0], 0.48), derived=der, R0=0.1)
        assert out["status"] == "pass"
        assert out["stages"]["certificate"]["eps0"] == pytest.approx(0.25, rel=1e-12)
