"""End-to-end pipeline: system residuals, structure checks, per-ball energy
and reverse-Hoelder scans, and the chained self-improvement certificate.

One walk, ``energy_scans``, visits a deterministic family of concentric
ball pairs once.  Per ball it reads one lattice window, fits one weighted
mean-value polynomial against a smooth cutoff, compares the localized
top-order energy with the lower-order and data terms (Caccioppoli), and
packages the shared averages directly as the premise of the
self-improvement step (reverse Hoelder), so the final certificate is
auditable from one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import DerivedExponents, ExponentConfig, derive, validate, validation_passes
from .gehring import _ball_pair_family, gehring_constants, gehring_verify
from .grid import (
    GridError,
    GridFunction,
    Region,
    _ball_cells,
    derivative_norm,
    multi_indices,
    partial_derivative,
)
from .meanpoly import fit_on_cells
from .truncation import _cutoff_profile, global_majorant, scan_delta
from .weights import Weight, double_phase_field

__all__ = [
    "delta_hat",
    "model_residual",
    "structure_checks",
    "BallScan",
    "energy_scans",
    "self_improve",
]


# ---------------------------------------------------------------------------
# exponent helpers for the scans
# ---------------------------------------------------------------------------


def delta_hat(n: int, p: float, q: float, alpha: float) -> float:
    """The sub-unit energy exponent from the lower-order estimate.

    Case split on the duals-below-one:
      p_* = max(1, np/(n+p)), q_* = max(1, nq/(n+q));
      p_* > 1            -> (p_*, q_*)
      q_* > 1 = p_*      -> (min((1+p)/2, q_*), q_*)
      q_* = 1            -> ((1+p)/2, min((1+q)/2, (1+alpha/(nq)) (1+p)/2))
    and delta_hat = max(phat/p, qhat/q).
    """
    p_star = max(1.0, n * p / (n + p))
    q_star = max(1.0, n * q / (n + q))
    if p_star > 1.0:
        phat, qhat = p_star, q_star
    elif q_star > 1.0:
        phat, qhat = min((1.0 + p) / 2.0, q_star), q_star
    else:
        phat = (1.0 + p) / 2.0
        qhat = min((1.0 + q) / 2.0, (1.0 + alpha / (n * q)) * (1.0 + p) / 2.0)
    return max(phat / p, qhat / q)


# ---------------------------------------------------------------------------
# model system
# ---------------------------------------------------------------------------


def model_flux(u: GridFunction, weight: Weight, p: float, q: float, m: int) -> dict:
    """Top-order flux of the model system: (|D^m u|^(p-2) + a |D^m u|^(q-2)) d_sigma u."""
    dnorm = derivative_norm(u, m).scalar()
    a_vals = weight.a.scalar()
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(dnorm > 0, dnorm ** (p - 2.0) + a_vals * dnorm ** (q - 2.0), 0.0)
    flux = {}
    for sig in multi_indices(u.n, m):
        flux[sig] = partial_derivative(u, sig).values * w[..., None]
    return flux


def model_residual(
    u: GridFunction,
    weight: Weight,
    p: float,
    q: float,
    phi: GridFunction,
    m: int = 1,
) -> float:
    """Quadrature of the weak form against a test field that vanishes on the
    two outermost cells of every face."""
    if not 1.0 < p <= q < math.inf:
        raise GridError(f"exponents need 1 < p <= q < inf, got p={p}, q={q}")
    if not u.same_lattice(phi):
        raise GridError("test function must share the lattice")
    border = np.zeros(u.dims, dtype=bool)
    for axis in range(u.n):
        sl = [slice(None)] * u.n
        sl[axis] = slice(0, 2)
        border[tuple(sl)] = True
        sl[axis] = slice(-2, None)
        border[tuple(sl)] = True
    if np.any(phi.values[border] != 0.0):
        raise GridError("test function must vanish on the boundary margin")
    flux = model_flux(u, weight, p, q, m)
    total = 0.0
    for sig, fl in flux.items():
        dphi = partial_derivative(phi, sig).values
        total += float(np.sum(fl * dphi)) * u.cell_volume
    return total


def structure_checks(
    weight: Weight,
    p: float,
    q: float,
    nu: float = 1.0,
    m: int = 1,
    n: int = 2,
    components: int = 1,
    count: int = 10_000,
) -> dict:
    """Coercivity and growth of the model field on random state samples,
    drawn from seed 0x5EED."""
    rng = np.random.default_rng(0x5EED)
    sigmas = multi_indices(n, m)
    k = len(sigmas) * components
    xi = rng.normal(size=(count, k))
    a_flat = weight.a.scalar().reshape(-1)
    a_s = a_flat[rng.integers(0, len(a_flat), size=count)]
    norm = np.linalg.norm(xi, axis=1)
    wgt = np.where(norm > 0, norm ** (p - 2.0) + a_s * norm ** (q - 2.0), 0.0)
    pairing = wgt * norm**2  # sum_sigma A_sigma . xi_sigma
    target = norm**p + a_s * norm**q
    coercivity_residual = float(np.abs(pairing / nu - target).max()) if count else 0.0
    coercivity_ok = bool(np.all(pairing / nu >= target * (1 - 1e-12) - 1e-300))
    # growth: |A_sigma| = wgt |xi_sigma| <= |xi|^(p-1) + a^(1/q) a^((q-1)/q) |xi|^(q-1)
    amax = np.abs(xi).max(axis=1)
    lhs = wgt * amax
    rhs = norm ** (p - 1.0) + a_s * norm ** (q - 1.0)
    growth_ok = bool(np.all(lhs <= rhs * (1 + 1e-12) + 1e-300))
    return {
        "coercivity_ok": coercivity_ok,
        "coercivity_residual": coercivity_residual,
        "growth_ok": growth_ok,
        "samples": count,
    }


# ---------------------------------------------------------------------------
# per-ball scans
# ---------------------------------------------------------------------------


@dataclass
class BallScan:
    center: np.ndarray
    R: float
    lhs: float
    terms: dict
    constant: float


def energy_scans(
    u: GridFunction,
    weight: Weight,
    cfg: ExponentConfig,
    derived: DerivedExponents,
    omega: Region,
    R0: float,
) -> dict:
    """Per-ball energy comparison and reverse-Hoelder decomposition, in one
    walk over the ball family; returns ``{"caccioppoli": ..., "reverse_holder": ...}``.

    Caccioppoli: LHS = avg_{B_R} H_m^delta against
    (1/2) avg_{B_3R} H_m^delta
    + c sum_l avg_{B_2R} H_m(x, (D^l u - D^l P)/R^(m-l))^delta
    + c avg_{B_3R} F^delta,
    with P the eta-weighted mean-value polynomial on B_2R.  Also verifies
    the lower-order control: the unpowered middle sum against
    (avg_{B_2R} H_m^delta_hat)^(1/delta_hat).

    Reverse Hoelder, packaged for self-improvement:
    avg_{B_R} H_m^delta <= c (avg_{B_3R} H_m^delta_hat)^(delta/delta_hat)
    + c avg_{B_3R} F^delta + (1/2) avg_{B_3R} H_m^delta.
    That half carries f1 = H_m^delta, f2 = F^delta, kappa =
    delta_hat/delta and the tail coefficient 1/2.
    """
    family = _ball_pair_family(u, omega, R0)
    if not family:
        raise GridError("empty ball family: domain too small for the scan radius")
    F = global_majorant(u, weight, cfg, derived, omega.mask_for(u))
    Hm = double_phase_field(derivative_norm(u, cfg.m), weight, derived, cfg.q, cfg.m)
    delta = scan_delta(derived.delta0)
    dhat = delta_hat(cfg.n, cfg.p, cfg.q, cfg.alpha)
    a_vals = weight.a.scalar()
    Hm_vals = Hm.scalar()
    F_vals = F.scalar()
    dfields = {sig: partial_derivative(u, sig).values
               for ell in range(cfg.m) for sig in multi_indices(u.n, ell)}

    cacc, rh = [], []
    mid_control = 0.0
    for c, R in family:
        slices, centers, d2, (in1, in2, in3) = _ball_cells(u, c, R, 2 * R, 3 * R)
        Hm_w = Hm_vals[slices]
        lhs = float((Hm_w[in1] ** delta).mean())
        t_half = 0.5 * float((Hm_w[in3] ** delta).mean())
        t_F = float((F_vals[slices][in3] ** delta).mean())
        low = float((Hm_w[in3] ** dhat).mean()) ** (delta / dhat)
        # P: the mean-value fit on the B_2R cells against smooth_cutoff(u, c, R, 2R)
        pts2 = centers[in2]
        rows = {sig: vals[slices][in2] for sig, vals in dfields.items()}
        P = fit_on_cells(pts2, _cutoff_profile(np.sqrt(d2[in2]), R, 2.0 * R), rows, cfg.m, c)
        mid = 0.0
        mid_unpow = 0.0
        for ell in range(cfg.m):
            # |D^l u - D^l P| on the B_2R cells
            z = P.derivative_norm_at(pts2, ell, rows) / R ** (cfg.m - ell)
            hm_of = z**cfg.p + a_vals[slices][in2] * z**cfg.q
            mid += float((hm_of**delta).mean())
            mid_unpow += float(hm_of.mean())
        for out, terms, denom in ((cacc, {"half": t_half, "mid": mid, "F": t_F}, mid + t_F),
                                  (rh, {"low": low, "F": t_F, "half": t_half}, low + t_F)):
            const = max(0.0, lhs - t_half) / denom if denom > 0 else 0.0
            out.append(BallScan(center=c, R=R, lhs=lhs, terms=terms, constant=const))
        rhs_ctrl = float((Hm_w[in2] ** dhat).mean()) ** (1.0 / dhat)
        if rhs_ctrl > 0:
            mid_control = max(mid_control, mid_unpow / rhs_ctrl)
    return {
        "caccioppoli": {
            "balls": cacc,
            "constant": max(b.constant for b in cacc),
            "mid_control_constant": mid_control,
            "delta": delta,
            "delta_hat": dhat,
            "count": len(cacc),
        },
        "reverse_holder": {
            "balls": rh,
            "constant": max(b.constant for b in rh),
            "kappa": dhat / delta,
            "theta_rh": 0.5,
            "delta": delta,
            "delta_hat": dhat,
            "f1": Hm.with_values((Hm_vals**delta)[..., None]),
            "f2": F.with_values((F_vals**delta)[..., None]),
            "count": len(rh),
        },
    }


def self_improve(
    u: GridFunction,
    weight: Weight,
    cfg: ExponentConfig,
    omega: Region,
    R0: float,
    derived: DerivedExponents | None = None,
    kappa_override: float | None = None,
) -> dict:
    """Full chain: validate, derive exponents, scans, certificate, verify.

    The measured reverse-Hoelder constant becomes the premise constant A,
    kappa = delta_hat/delta, eps0 = 1/delta0 - 1 (or 1/delta - 1 in the
    unit-target mode), and the improved-integrability inequality is then
    verified at eps_max over the same ball family.
    """
    stages: dict = {}
    checks = validate(cfg)
    stages["validate"] = {"pass": validation_passes(checks),
                          "failed": [c.name for c in checks if not c.ok]}
    if not stages["validate"]["pass"]:
        return {"stages": stages, "status": "fail", "failed_stage": "validate"}
    if derived is None:
        derived = derive(cfg)
    stages["exponents"] = derived.as_dict()

    scans = energy_scans(u, weight, cfg, derived, omega, R0=R0)
    cacc, rh = scans["caccioppoli"], scans["reverse_holder"]
    stages["caccioppoli"] = {
        "constant": cacc["constant"],
        "mid_control_constant": cacc["mid_control_constant"],
        "count": cacc["count"],
    }
    stages["reverse_holder"] = {"constant": rh["constant"], "kappa": rh["kappa"], "count": rh["count"]}

    A = max(rh["constant"], 1e-6)
    kappa = rh["kappa"] if kappa_override is None else float(kappa_override)
    if cfg.beta_src == 1.0:
        eps0 = 1.0 / rh["delta"] - 1.0
        mode = "corollary"
    else:
        eps0 = 1.0 / derived.delta0 - 1.0
        mode = "theorem"
    cert = gehring_constants(cfg.n, A, kappa, eps0, theta_rh=rh["theta_rh"], R0=R0)
    stages["certificate"] = cert.as_dict()

    f2_scaled = rh["f2"].with_values(A * rh["f2"].values)
    verify = gehring_verify(rh["f1"], f2_scaled, cert, omega=omega)
    stages["gehring_verify"] = {
        k: verify[k]
        for k in ("pairs", "premise_failures", "premise_pass_fraction", "conclusion_constant", "eps")
    }
    ok = verify["premise_failures"] == 0 and math.isfinite(verify["conclusion_constant"])
    stages["improvement"] = {
        "eps_max": cert.eps_max,
        "improved_exponent": 1.0 + cert.eps_max,
        "mode": mode,
        "target_integrability": 1.0 if mode == "corollary" else (1.0 + cert.eps_max) * rh["delta"],
    }
    status = "pass" if ok and cert.eps_max > 0 else "fail"
    failed = None if status == "pass" else "gehring_verify"
    return {"stages": stages, "status": status, "failed_stage": failed}
