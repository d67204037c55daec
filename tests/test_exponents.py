"""Exponent algebra: conjugates, Sobolev exponents, validation, selection."""

import json
import math

import numpy as np
import pytest

from dptool import exponents as ex

INF = math.inf


def model_cfg(**kw):
    base = dict(n=2, m=1, N=1, p=2.0, q=2.2, alpha=0.5)
    base.update(kw)
    return ex.ExponentConfig(**base)


class TestConjugate:
    def test_endpoints_and_middle(self):
        assert ex.holder_conjugate(1.0) == INF
        assert ex.holder_conjugate(2.0) == 2.0
        assert ex.holder_conjugate(4.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert ex.holder_conjugate(INF) == 1.0

    def test_involution(self):
        for t in (1.3, 2.0, 3.7, 11.0):
            assert ex.holder_conjugate(ex.holder_conjugate(t)) == pytest.approx(t, rel=1e-14)

    def test_below_one_rejected(self):
        with pytest.raises(ex.ExponentError):
            ex.holder_conjugate(0.9)


class TestSobolevExponent:
    def test_examples(self):
        assert ex.sobolev_exponent(2.0, 1, 4) == 4.0
        assert ex.sobolev_exponent(3.0, 1, 3) == INF
        assert ex.sobolev_exponent(1.5, 2, 3) == INF  # boundary l*t = n

    def test_monotone_in_t_and_l(self):
        vals_t = [ex.sobolev_exponent(t, 1, 5) for t in (1.0, 1.5, 2.0, 3.0)]
        assert all(a <= b for a, b in zip(vals_t, vals_t[1:]))
        vals_l = [ex.sobolev_exponent(1.2, ell, 5) for ell in (0, 1, 2, 3)]
        assert all(a <= b for a, b in zip(vals_l, vals_l[1:]))


class TestValidate:
    def test_model_passes(self):
        checks = ex.validate(model_cfg())
        assert ex.validation_passes(checks)

    def test_borderline_gap_fails_with_zero_slack(self):
        cfg = model_cfg(q=2.0 * (1 + 0.5 / 2))  # q/p = 1 + alpha/n exactly
        checks = ex.validate(cfg)
        gap = [c for c in checks if c.name.startswith("gap")][0]
        assert not gap.ok and abs(gap.slack) < 1e-14

    def test_order_gap_identity(self):
        # at orders with l q < n the gap equals (n/q)(1 + alpha/n - q/p)
        n, p, q, alpha = 5, 2.0, 2.2, 0.5
        for ell in (0, 1, 2):
            if ell * q < n:
                lhs = alpha / q - n * (1 / ex.sobolev_exponent(p, ell, n) - 1 / ex.sobolev_exponent(q, ell, n))
                rhs = (n / q) * (1 + alpha / n - q / p)
                assert lhs == pytest.approx(rhs, abs=1e-14)


class TestSelectGammas:
    def test_model_system_feasible_and_rechecked(self):
        cfg = model_cfg()
        got = ex.select_gammas(cfg)
        for r, rv in (("p", 2.0), ("q", 2.2)):
            gam = got["gamma"][r][0]
            assert rv < gam < ex.sobolev_exponent(rv, 1, 2)
            # Hoelder triple identities hold exactly
            s_hat, t_hat = got["s_hat"][r][0], got["t_hat"][r][0]
            rp = ex.holder_conjugate(rv)
            assert (0 if math.isinf(s_hat) else 1 / s_hat) + 1 / gam + 1 / rp == pytest.approx(1.0, abs=1e-14)
            assert 1 / t_hat + 1 / gam == pytest.approx(1.0, abs=1e-14)
        assert got["gamma"]["p"][0] <= got["gamma"]["q"][0]

    def test_top_order_pinned(self):
        got = ex.select_gammas(model_cfg())
        assert got["gamma"]["p"][1] == 2.0
        assert got["t_hat"]["p"][1] == 2.0  # p' for p = 2
        assert math.isinf(got["s_hat"]["p"][1])

    def test_exact_lower_bound_infeasible(self):
        # s at its admissible lower bound leaves an empty gamma interval
        n, m, p = 2, 1, 2.0
        bound = 1.0 / (1 - 1 / ex.sobolev_exponent(p, m, n) - 1 / ex.holder_conjugate(p))
        cfg = model_cfg(s={"p": (bound, INF), "q": (INF, INF)})
        with pytest.raises(ex.ExponentError):
            ex.select_gammas(cfg)


class TestSelectDelta0:
    def test_resubstitution_slacks_positive(self):
        cfg = model_cfg()
        der = ex.derive(cfg)
        bad = [c for c in ex.check_derived(cfg, der) if not c.ok]
        assert not bad

    def test_degenerate_double_phase_returns_near_one(self):
        cfg = model_cfg(q=2.0)
        gammas = ex.select_gammas(cfg)
        assert ex.select_delta0(cfg, gammas).delta0 == 1.0 - 1e-6

    def test_beta_src_just_above_one(self):
        # 1/(1 - 1e-6) > 1 + 5e-7, so the walk's every candidate fails
        # 1/delta0 < beta_src; the midpoint of (1/beta_src, 1) does not
        cfg = model_cfg(beta_src=1.0 + 5e-7)
        der = ex.derive(cfg)
        assert 1.0 - 1e-6 < der.delta0 < 1.0 and 1.0 / der.delta0 < cfg.beta_src
        assert all(c.ok for c in ex.check_derived(cfg, der))
        assert ex.derive(model_cfg(beta_src=1.0 + 2e-6)).delta0 == 1.0 - 1e-6

    def test_beta_positive(self):
        der = ex.derive(model_cfg())
        assert all(b > 0 for b in der.beta_ell)

    def test_deterministic(self):
        a = ex.derive(model_cfg())
        b = ex.derive(model_cfg())
        assert a.delta0 == b.delta0
        assert a.gamma == b.gamma and a.beta_ell == b.beta_ell


class TestRieszGap:
    def test_p_equals_q(self):
        out = ex.riesz_gap(2.0, 2.0, 4, 1.0)
        assert out["beta"] == 1.0 and out["range_ok"]

    def test_forced_arithmetic(self):
        out = ex.riesz_gap(2.0, 3.0, 6, 1.0)
        assert out["beta"] == 2.0
        assert out["embedding_residual"] < 1e-15
        # n p / (n - beta p) = 6 = n q / (n - q)
        assert 6 * 2 / (6 - 2.0 * 2) == 6.0

    def test_identities_on_random_tuples(self):
        """The two identities restated here are riesz_gap's residuals, bit for
        bit, at the tuple's own alpha, and vanish to roundoff."""
        rng = np.random.default_rng(0x5EED)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            p = float(rng.uniform(1.0, n - 0.5))
            q = float(rng.uniform(p, n - 1e-3))
            alpha = float(rng.uniform(0.1, 3.0))
            beta = n * (1 / p - 1 / q) + 1
            gap_resid = abs((1 + alpha / q - beta) - (n / q) * (1 + alpha / n - q / p))
            embed_resid = abs((1 / p - beta / n) - (1 / q - 1 / n))
            gap = ex.riesz_gap(p, q, n, alpha)
            assert (gap["beta"], gap["gap_identity_residual"], gap["embedding_residual"]) == (beta, gap_resid, embed_resid)
            worst = max(worst, gap_resid, embed_resid)
        assert worst < 1e-14

    def test_q_at_least_n_rejected(self):
        with pytest.raises(ex.ExponentError):
            ex.riesz_gap(2.0, 3.0, 3, 1.0)


class TestHandPickedBlock:
    def test_feasible_block_accepted(self):
        cfg = ex.ExponentConfig(n=2, m=1, N=1, p=2.0, q=2.2, alpha=3.0, a_seminorm=4.0)
        der = ex.make_derived(cfg, {"p": (2.5,), "q": (2.5,)}, delta0=0.8)
        assert der.delta0 == 0.8
        assert all(c.ok for c in ex.check_derived(cfg, der))

    def test_infeasible_block_rejected(self):
        cfg = ex.ExponentConfig(n=2, m=1, N=1, p=2.0, q=2.2, alpha=3.0)
        with pytest.raises(ex.ExponentError):
            ex.make_derived(cfg, {"p": (2.5,), "q": (2.5,)}, delta0=0.6)


class TestConfigIO:
    def test_from_json_dict_with_inf_strings(self):
        doc = {"n": 2, "m": 1, "p": 2.0, "q": 2.2, "alpha": 0.5,
               "s": {"p": ["inf", "inf"], "q": ["inf", "inf"]},
               "t": {"p": ["inf", "inf"], "q": ["inf", "inf"]}}
        cfg = ex.ExponentConfig.from_json(doc)
        assert math.isinf(cfg.s["p"][1])
        assert ex.validation_passes(ex.validate(cfg))

    @pytest.mark.parametrize("seq", [None, {}, {"p": None}, {"p": None, "q": ["Infinity", "INF"]}])
    def test_from_json_defaults_and_nulls(self, seq):
        """Keys left out take the dataclass defaults, and a null s, t or
        sequence in one means all inf."""
        doc = {"n": 2, "m": 1, "p": 2, "q": "2.2", "alpha": 0.5, "s": seq, "t": seq}
        assert ex.ExponentConfig.from_json(doc) == ex.ExponentConfig(n=2, m=1, p=2.0, q=2.2, alpha=0.5)

    def test_from_json_missing_required_key(self):
        with pytest.raises(KeyError, match="alpha"):
            ex.ExponentConfig.from_json({"n": 2, "m": 1, "p": 2.0, "q": 2.2})

    @pytest.mark.parametrize("key,value", [
        ("n", 2.7), ("m", 1.5), ("N", 1.000001), ("n", "inf"), ("m", "nan"),
        ("n", True), ("m", True), ("N", False), ("p", True), ("alpha", True), ("beta_src", False)])
    def test_from_json_rejects_booleans_and_fractions(self, key, value):
        """A boolean for a number, or a fraction for n, m or N, is named, not
        truncated: {"n": 2.7, "m": true} used to give n = 2 and m = 1."""
        doc = {"n": 2, "m": 1, "p": 2.0, "q": 2.2, "alpha": 0.5, key: value}
        with pytest.raises(ex.ExponentError, match=f"config value {key} must be a"):
            ex.ExponentConfig.from_json(doc)

    def test_from_json_whole_numbers_and_number_strings(self):
        doc = {"n": 2.0, "m": "1", "N": 1.0, "p": 2, "q": "2.2", "alpha": "0.5", "beta_src": "inf"}
        cfg = ex.ExponentConfig.from_json(doc)
        assert (cfg.n, cfg.m, cfg.N) == (2, 1, 1) and all(type(v) is int for v in (cfg.n, cfg.m, cfg.N))
        assert (cfg.p, cfg.q, cfg.alpha, cfg.beta_src) == (2.0, 2.2, 0.5, math.inf)

    @pytest.mark.parametrize("doc", [
        {"s": {"p": [None, 2]}}, {"n": None}, [1, 2], {"s": [1, 2]}, {"t": {"q": 5}}, {"m": [1]}])
    def test_from_json_malformed_values(self, tmp_path, doc):
        """A value of the wrong JSON type raises ExponentError, not TypeError
        or AttributeError."""
        if isinstance(doc, dict):
            doc = {"n": 2, "m": 1, "p": 2.0, "q": 2.2, "alpha": 0.5, **doc}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        with pytest.raises(ex.ExponentError, match="config"):
            ex.ExponentConfig.from_json(tmp_path / "cfg.json")
