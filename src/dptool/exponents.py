"""Exponent bookkeeping for the double-phase growth framework.

Checks the admissibility of the parameter block (dimension, derivative
order, growth exponents p <= q, weight regularity alpha, data-function
integrabilities) and constructively selects the derived exponents: the
interpolation exponents gamma_{r,l}, their Hoelder companions shat/that,
the scaling exponent delta0 close to 1, and the fractional orders beta_l.
Infinite exponents are represented by float('inf') with the usual total
arithmetic (1/inf = 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

__all__ = [
    "INF",
    "ExponentError",
    "CheckItem",
    "ExponentConfig",
    "DerivedExponents",
    "holder_conjugate",
    "sobolev_exponent",
    "validate",
    "select_gammas",
    "select_delta0",
    "derive",
    "riesz_gap",
]

INF = math.inf

_R_KEYS = ("p", "q")


class ExponentError(ValueError):
    """Inadmissible or infeasible exponent data."""


@dataclass(frozen=True)
class CheckItem:
    name: str
    slack: float
    ok: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "slack": self.slack, "ok": self.ok}


@dataclass(frozen=True)
class ExponentConfig:
    """The input parameter block.

    ``s`` and ``t`` map the growth index r in {"p","q"} to a tuple of
    per-order data-function exponents, length m+1 (orders 0..m); inf means
    the corresponding data function is bounded/absent.  ``beta_src`` is the
    integrability exponent of the source term f_p + a f_q (1 switches the
    pipeline to the borderline mode with unit target integrability).
    """

    n: int
    m: int
    p: float
    q: float
    alpha: float
    N: int = 1
    a_seminorm: float = 1.0
    nu: float = 1.0
    beta_src: float = 2.0
    s: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)

    def __post_init__(self):
        s = {r: tuple(float(x) for x in self.s.get(r, (INF,) * (self.m + 1))) for r in _R_KEYS}
        t = {r: tuple(float(x) for x in self.t.get(r, (INF,) * (self.m + 1))) for r in _R_KEYS}
        for r in _R_KEYS:
            if len(s[r]) != self.m + 1 or len(t[r]) != self.m + 1:
                raise ExponentError("s and t need one exponent per order 0..m")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    @classmethod
    def from_json(cls, path_or_dict) -> "ExponentConfig":
        """The config in a JSON file or dict.  An optional key left out, or a
        null s, t or sequence in one, keeps its field's default; a required
        key left out raises KeyError, and a value of the wrong JSON type, a
        boolean for a number or a fraction for n, m or N ExponentError."""
        if isinstance(path_or_dict, dict):
            doc = path_or_dict
        else:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        if not isinstance(doc, dict) or not all(isinstance(doc.get(key) or {}, dict) for key in ("s", "t")):
            raise ExponentError("a config is a JSON object, and its s and t objects keyed by p and q")

        def number(key: str, whole: bool):
            if isinstance(doc[key], bool):
                raise ExponentError(f"config value {key} must be a number, got {doc[key]}")
            x = float(doc[key])
            if whole and not x.is_integer():
                raise ExponentError(f"config value {key} must be a whole number, got {doc[key]!r}")
            return int(x) if whole else x

        try:
            kw = {f.name: number(f.name, f.type == "int") for f in fields(cls)
                  if f.type in ("int", "float") and (f.name in doc or f.default is MISSING)}
            for key in ("s", "t"):
                kw[key] = {r: v for r, v in (doc.get(key) or {}).items() if v is not None}
            return cls(**kw)
        except TypeError as exc:
            raise ExponentError(f"config values must be numbers or sequences of numbers: {exc}") from None

    def r_value(self, r: str) -> float:
        return self.p if r == "p" else self.q


@dataclass(frozen=True)
class DerivedExponents:
    """Output of the constructive exponent selection.

    ``gamma``, ``s_hat``, ``t_hat`` map r in {"p","q"} to tuples indexed by
    order 0..m; ``beta_ell`` is the tuple of fractional maximal orders, and
    ``mode`` records whether the source exponent allows the full
    self-improvement ("theorem") or only the unit-target variant
    ("corollary").
    """

    gamma: dict
    s_hat: dict
    t_hat: dict
    delta0: float
    beta_ell: tuple
    R0: float
    mode: str

    def as_dict(self) -> dict:
        return {
            "gamma": {r: list(self.gamma[r]) for r in _R_KEYS},
            "s_hat": {r: list(self.s_hat[r]) for r in _R_KEYS},
            "t_hat": {r: list(self.t_hat[r]) for r in _R_KEYS},
            "delta0": self.delta0,
            "beta_ell": list(self.beta_ell),
            "R0": self.R0,
            "mode": self.mode,
        }


# ---------------------------------------------------------------------------
# elementary exponent algebra
# ---------------------------------------------------------------------------


def holder_conjugate(t: float) -> float:
    """t' = inf for t=1, t/(t-1) for 1<t<inf, 1 for t=inf."""
    if t < 1:
        raise ExponentError(f"conjugate undefined for t = {t} < 1")
    if t == 1:
        return INF
    if math.isinf(t):
        return 1.0
    return t / (t - 1.0)


def sobolev_exponent(t: float, ell: int, n: int) -> float:
    """(t_ell)^* = nt/(n - ell*t) when ell*t < n, otherwise inf."""
    if t < 1:
        raise ExponentError(f"sobolev exponent undefined for t = {t} < 1")
    if ell < 0:
        raise ExponentError("order must be nonnegative")
    if ell == 0:
        return float(t)
    if math.isinf(t) or ell * t >= n:
        return INF
    return n * t / (n - ell * t)


def _inv(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


def _adder(checks: list):
    """``add(name, slack, strict=True)``: append one CheckItem to ``checks``,
    passing when the slack is positive (nonnegative if not strict)."""

    def add(name: str, slack: float, strict: bool = True):
        ok = slack > 0 if strict else slack >= 0
        checks.append(CheckItem(name, float(slack), bool(ok)))

    return add


# ---------------------------------------------------------------------------
# validation of the input block
# ---------------------------------------------------------------------------


def validate(cfg: ExponentConfig) -> list[CheckItem]:
    """All admissibility inequalities, each reported with its slack.

    The overall block passes iff every strict inequality has positive
    slack.  Source exponent exactly 1 is admitted as the borderline
    (unit-target) mode and reported as such.
    """
    checks: list[CheckItem] = []
    add = _adder(checks)
    add("p > 1", cfg.p - 1.0)
    add("q >= p", cfg.q - cfg.p, strict=False)
    add("alpha > 0", cfg.alpha)
    add("a_seminorm >= 1", cfg.a_seminorm - 1.0, strict=False)
    add("nu > 0", cfg.nu)
    add("m >= 1", cfg.m - 1, strict=False)
    add("gap q/p < 1 + alpha/n", 1.0 + cfg.alpha / cfg.n - cfg.q / cfg.p)
    add("beta_src >= 1", cfg.beta_src - 1.0, strict=False)

    for r in _R_KEYS:
        rv = cfg.r_value(r)
        rp = holder_conjugate(rv)
        for ell in range(cfg.m + 1):
            upper = sobolev_exponent(rv, cfg.m - ell, cfg.n)
            t_slack = (1.0 - _inv(upper)) - _inv(cfg.t[r][ell])
            add(f"t_{r},{ell} lower bound", t_slack)
            if ell < cfg.m:
                s_slack = (1.0 - _inv(upper) - _inv(rp)) - _inv(cfg.s[r][ell])
                add(f"s_{r},{ell} lower bound", s_slack)
        # at top order the admissible s-interval degenerates to {inf}
        if not math.isinf(cfg.s[r][cfg.m]):
            add(f"s_{r},{cfg.m} = inf", -1.0)

    # order-wise gap inequality: alpha/q - n(1/(p_l)* - 1/(q_l)*) > 0
    for ell in range(cfg.m + 1):
        p_star = sobolev_exponent(cfg.p, ell, cfg.n)
        q_star = sobolev_exponent(cfg.q, ell, cfg.n)
        gap = cfg.alpha / cfg.q - cfg.n * (_inv(p_star) - _inv(q_star))
        add(f"order-{ell} sobolev gap", gap)

    return checks


def validation_passes(checks: list[CheckItem]) -> bool:
    return all(c.ok for c in checks)


# ---------------------------------------------------------------------------
# constructive selection
# ---------------------------------------------------------------------------


def _gamma_lower(cfg: ExponentConfig, r: str, ell: int) -> float:
    """Largest lower bound on gamma_{r,l} implied by the data exponents."""
    rv = cfg.r_value(r)
    bound = rv
    inv_s = _inv(cfg.s[r][ell])
    if 1.0 / rv - inv_s <= 0:
        raise ExponentError(f"s_{r},{ell} leaves no admissible gamma")
    bound = max(bound, 1.0 / (1.0 / rv - inv_s))
    inv_t = _inv(cfg.t[r][ell])
    if 1.0 - inv_t <= 0:
        raise ExponentError(f"t_{r},{ell} leaves no admissible gamma")
    bound = max(bound, 1.0 / (1.0 - inv_t))
    return bound


def select_gammas(cfg: ExponentConfig) -> dict:
    """Choose gamma_{r,l} strictly inside (r, (r_{m-l})^*) meeting all joint
    constraints, then derive shat and that from the Hoelder identities.

    Selection rule: geometric midpoint between the largest implied lower
    bound and the upper Sobolev exponent (doubling when the upper end is
    infinite), with gamma_p clamped below gamma_q and both shrunk toward
    their lower bounds, halving the log-gap, when the joint gap inequality
    fails.  Deterministic.
    """
    checks = validate(cfg)
    if not validation_passes(checks):
        bad = [c.name for c in checks if not c.ok]
        raise ExponentError(f"config fails validation: {bad}")

    gamma = {r: [0.0] * (cfg.m + 1) for r in _R_KEYS}
    for r in _R_KEYS:
        gamma[r][cfg.m] = cfg.r_value(r)

    for ell in range(cfg.m):
        lows = {}
        highs = {}
        start = {}
        for r in _R_KEYS:
            rv = cfg.r_value(r)
            lo = _gamma_lower(cfg, r, ell)
            hi = sobolev_exponent(rv, cfg.m - ell, cfg.n)
            if lo >= hi:
                raise ExponentError(
                    f"empty gamma interval for r={r}, order {ell}: ({lo}, {hi})"
                )
            lows[r] = lo
            highs[r] = hi
            start[r] = 2.0 * lo if math.isinf(hi) else math.sqrt(lo * hi)

        gp, gq = start["p"], start["q"]
        if gp > gq:
            gp = gq if gq > lows["p"] else math.sqrt(lows["p"] * gq)
        ok = False
        for _ in range(41):
            if gp <= gq and cfg.alpha / cfg.q - cfg.n * (1.0 / gp - 1.0 / gq) > 0:
                ok = True
                break
            # shrink both toward their lower bounds, halving the gap
            gp = lows["p"] + 0.5 * (gp - lows["p"])
            gq = lows["q"] + 0.5 * (gq - lows["q"])
            if gp > gq:
                gp = min(gp, gq)
            if gp <= lows["p"] or gq <= lows["q"]:
                break
        if not ok:
            raise ExponentError(
                f"joint gap inequality infeasible at order {ell}: "
                f"alpha/q - n(1/gamma_p - 1/gamma_q) <= 0 near the lower bounds"
            )
        gamma["p"][ell] = gp
        gamma["q"][ell] = gq

    return _hats(cfg, {r: tuple(gamma[r]) for r in _R_KEYS})


def _hats(cfg: ExponentConfig, gamma: dict) -> dict:
    """``{"gamma", "s_hat", "t_hat"}``: gamma with s_hat and t_hat from the
    Hoelder identities (s_hat = inf where 1/s_hat is not positive)."""
    s_hat, t_hat = {}, {}
    for r in _R_KEYS:
        inv_s_hat = [1.0 / cfg.r_value(r) - 1.0 / g for g in gamma[r]]  # = 1 - 1/g - 1/r'
        s_hat[r] = tuple(INF if x <= 0 else 1.0 / x for x in inv_s_hat)
        t_hat[r] = tuple(1.0 / (1.0 - 1.0 / g) for g in gamma[r])
    return {"gamma": gamma, "s_hat": s_hat, "t_hat": t_hat}


def _block(cfg: ExponentConfig, gammas: dict, delta0: float) -> DerivedExponents:
    """The derived block at ``delta0``: ``gammas`` (from ``_hats``) with
    beta_l = n(1/(gamma_p,l delta0) - delta0/gamma_q,l), R0 = 1/2, and the
    mode the source exponent allows."""
    gamma = gammas["gamma"]
    beta_ell = tuple(
        cfg.n * (1.0 / (gamma["p"][ell] * delta0) - delta0 / gamma["q"][ell])
        for ell in range(cfg.m + 1)
    )
    return DerivedExponents(
        gamma=gamma, s_hat=gammas["s_hat"], t_hat=gammas["t_hat"], delta0=float(delta0),
        beta_ell=beta_ell, R0=0.5, mode="corollary" if cfg.beta_src == 1.0 else "theorem",
    )


def select_delta0(cfg: ExponentConfig, gammas: dict) -> DerivedExponents:
    """The block at the first delta0 = 1 - 1e-6 2^k (k = 0..60, above 1/p)
    that passes ``check_derived``; the feasible set is open near 1 whenever
    the gamma selection succeeded.  If 1 - 1e-6 fails 1/delta0 < beta_src,
    every later candidate does, and the midpoint of (1/beta_src, 1) is the
    one tried.  Raises naming the first failed check at the last one tried."""
    reason = ""
    candidates = [1.0 - 1e-6 * 2**k for k in range(61)]
    if cfg.beta_src > 1.0 and not 1.0 / candidates[0] < cfg.beta_src:
        candidates = [0.5 * (1.0 + 1.0 / cfg.beta_src)]
    for d0 in candidates:
        if d0 <= max(1.0 / cfg.p, 0.0):
            break
        block = _block(cfg, gammas, d0)
        reason = next((c.name for c in check_derived(cfg, block) if not c.ok), None)
        if reason is None:
            return block
    raise ExponentError(f"no feasible delta0; binding constraint: {reason}")


def check_derived(cfg: ExponentConfig, derived: DerivedExponents) -> list[CheckItem]:
    """Re-validate a derived block against every selection inequality.

    Accepts any feasible block, not only the ones produced by ``derive``;
    the truncation fixtures use hand-picked interior points of the feasible
    region and pass through this same validator.
    """
    checks: list[CheckItem] = []
    add = _adder(checks)
    gamma, s_hat, t_hat = derived.gamma, derived.s_hat, derived.t_hat
    d0 = derived.delta0
    add("delta0 > 1/p", d0 - 1.0 / cfg.p)
    add("delta0 < 1", 1.0 - d0)
    if cfg.beta_src > 1.0:
        add("1/delta0 < beta_src", cfg.beta_src - 1.0 / d0)
    for r in _R_KEYS:
        rv = cfg.r_value(r)
        rp = holder_conjugate(rv)
        add(f"gamma_{r},m == r", 1e-9 - abs(gamma[r][cfg.m] - rv), strict=False)
        add(f"t_hat_{r},m == r'", 1e-9 - abs(t_hat[r][cfg.m] - rp), strict=False)
        for ell in range(cfg.m + 1):
            g = gamma[r][ell]
            if ell < cfg.m:
                add(f"gamma_{r},{ell} > r", g - rv)
                upper = sobolev_exponent(rv, cfg.m - ell, cfg.n)
                add(f"gamma_{r},{ell} < (r_(m-l))^*", _inv(g) - _inv(upper))
                add(f"s constraint at gamma_{r},{ell}",
                    (1.0 - 1.0 / g - _inv(rp)) - _inv(cfg.s[r][ell]))
                add(f"s_hat identity {r},{ell}",
                    1e-9 - abs(_inv(s_hat[r][ell]) + 1.0 / g + _inv(rp) - 1.0), strict=False)
                if not math.isinf(cfg.s[r][ell]):
                    add(f"s_hat_{r},{ell}/delta0 < s", cfg.s[r][ell] - s_hat[r][ell] / d0)
                upper_d = sobolev_exponent(rv * d0, cfg.m - ell, cfg.n)
                add(f"gamma_{r},{ell}/delta0 < ((r d0)_(m-l))^*", _inv(g / d0) - _inv(upper_d))
            add(f"t constraint at gamma_{r},{ell}", (1.0 - 1.0 / g) - _inv(cfg.t[r][ell]))
            add(f"t_hat identity {r},{ell}", 1e-9 - abs(1.0 / t_hat[r][ell] + 1.0 / g - 1.0), strict=False)
            if not math.isinf(cfg.t[r][ell]):
                add(f"t_hat_{r},{ell}/delta0 < t", cfg.t[r][ell] - t_hat[r][ell] / d0)
            # absorption bound used by the energy-scan integral transform
            add(f"absorption delta0 at gamma_{r},{ell}", (d0 - 1.0 + 1.0 / g) - (1.0 - d0), strict=False)
    for ell in range(cfg.m + 1):
        add(f"gamma_p,{ell} <= gamma_q,{ell}", gamma["q"][ell] - gamma["p"][ell], strict=False)
        gap = cfg.alpha / cfg.q - cfg.n * (1.0 / (gamma["p"][ell] * d0) - d0 / gamma["q"][ell])
        add(f"weighted gap order {ell}", gap)
        beta_ell = derived.beta_ell[ell]
        add(f"beta_{ell} > 0", beta_ell)
        add(f"beta_{ell} < alpha/q", cfg.alpha / cfg.q - beta_ell)
        add(f"beta_{ell} < n/(gamma_p delta0)", cfg.n / (gamma["p"][ell] * d0) - beta_ell)
        # the embedding identity behind the fractional order
        gp_d0 = gamma["p"][ell] * d0
        lhs = cfg.n * gp_d0 / (cfg.n - beta_ell * gp_d0)
        add(f"beta_{ell} embedding identity",
            1e-9 - abs(lhs - gamma["q"][ell] / d0) / (gamma["q"][ell] / d0), strict=False)
    add("R0 <= 1/2", 0.5 - derived.R0, strict=False)
    add("R0 > 0", derived.R0)
    return checks


def make_derived(cfg: ExponentConfig, gamma_below_m: dict, delta0: float) -> DerivedExponents:
    """Assemble and re-validate a hand-picked derived block.

    ``gamma_below_m`` maps "p"/"q" to tuples of gammas for orders 0..m-1;
    the top order is pinned to gamma = r.  Raises when any selection
    inequality fails.
    """
    gamma = {r: tuple(float(x) for x in gamma_below_m.get(r, ())) + (cfg.r_value(r),) for r in _R_KEYS}
    if any(len(gs) != cfg.m + 1 for gs in gamma.values()):
        raise ExponentError("need one gamma per order 0..m-1")
    derived = _block(cfg, _hats(cfg, gamma), delta0)
    bad = [c.name for c in check_derived(cfg, derived) if not c.ok]
    if bad:
        raise ExponentError(f"hand-picked block fails selection inequalities: {bad}")
    return derived


def derive(cfg: ExponentConfig) -> DerivedExponents:
    """Full constructive pipeline: gammas, hats, delta0, beta_l."""
    return select_delta0(cfg, select_gammas(cfg))


# ---------------------------------------------------------------------------
# Riesz interpolation order
# ---------------------------------------------------------------------------


def riesz_gap(p: float, q: float, n: int, alpha: float) -> dict:
    """beta = n(1/p - 1/q) + 1 with its two exact identities.

    Returns the order together with the verified relations
    1 <= beta < n/p, np/(n - beta p) = nq/(n - q), and
    1 + alpha/q - beta = (n/q)(1 + alpha/n - q/p), each as a residual.
    """
    if not (1 <= p <= q):
        raise ExponentError(f"need 1 <= p <= q, got p={p}, q={q}")
    if q >= n:
        raise ExponentError(f"need q < n, got q={q}, n={n}")
    beta = n * (1.0 / p - 1.0 / q) + 1.0
    # the embedding identity np/(n - beta p) = nq/(n - q), compared through
    # the reciprocals: 1/p - beta/n against 1/q - 1/n (cancellation-free)
    ident1 = (1.0 / p - beta / n) - (1.0 / q - 1.0 / n)
    ident2 = (1.0 + alpha / q - beta) - (n / q) * (1.0 + alpha / n - q / p)
    return {
        "beta": beta,
        "range_ok": bool(1.0 <= beta < n / p),
        "embedding_residual": abs(ident1),
        "gap_identity_residual": abs(ident2),
    }
