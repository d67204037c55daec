"""End-to-end pipeline: system residuals, the per-ball reverse-Hoelder
scan, and the chained self-improvement certificate.

One walk, ``_energy_walk``, visits a deterministic family of concentric
ball pairs once, all balls of one cell count together: it measures each
ball's localized top-order energy, its lower-exponent average and the data
term as row means over the gathered cells of lattice-wide powers.
``energy_scans`` reduces them to the reverse-Hoelder constant and packages
the shared averages directly as the premise of the self-improvement step.
"""

from __future__ import annotations

import math

import numpy as np

from .exponents import DerivedExponents, ExponentConfig, derive, validate, validation_passes
from .gehring import _THETA_RH, _ball_pair_family, gehring_constants, gehring_verify
from .grid import (
    GridError,
    GridFunction,
    Region,
    _array_norm,
    _ball_rows,
    derivative_array,
    derivative_norm,
)
from .truncation import global_majorant, scan_delta
from .weights import Weight, double_phase_field

__all__ = [
    "delta_hat",
    "model_residual",
    "energy_scans",
    "self_improve",
]


# ---------------------------------------------------------------------------
# exponent helpers for the scan
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
    darray = derivative_array(u, m)
    dnorm = _array_norm(u, darray).scalar()
    a_vals = weight.a.scalar()
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(dnorm > 0, dnorm ** (p - 2.0) + a_vals * dnorm ** (q - 2.0), 0.0)
    return {sig: d.values * w[..., None] for sig, d in darray.items()}


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
    border = np.ones(u.dims, dtype=bool)
    border[(slice(2, -2),) * u.n] = False
    if np.any(phi.values[border] != 0.0):
        raise GridError("test function must vanish on the boundary margin")
    dphi = derivative_array(phi, m)
    total = 0.0
    for sig, fl in model_flux(u, weight, p, q, m).items():
        total += float(np.sum(fl * dphi[sig].values)) * u.cell_volume
    return total


# ---------------------------------------------------------------------------
# per-ball scan
# ---------------------------------------------------------------------------


def _energy_walk(u: GridFunction, Hm_vals: np.ndarray, F_vals: np.ndarray, family: tuple,
                 delta: float, dhat: float) -> dict:
    """Each measured term of the reverse-Hoelder scan, one array over the
    ball pairs (B_R(c), B_3R(c)) of ``family`` in order: ``lhs`` =
    avg_{B_R} H_m^delta, ``half`` = theta_rh avg_{B_3R} H_m^delta, ``F`` =
    avg_{B_3R} F^delta and ``low`` = (avg_{B_3R} H_m^delta_hat)^(delta/delta_hat).
    Each power is taken once over the lattice, and each average is a row
    mean of the cells gathered from it."""
    centers, R = family
    Hd, Hh, Fd = (Hm_vals**delta).reshape(-1), (Hm_vals**dhat).reshape(-1), (F_vals**delta).reshape(-1)
    lhs, half, F, low = np.empty((4, len(R)))
    for ids, (in1, in3) in _ball_rows(u, centers, R, 3 * R):
        lhs[ids] = Hd[in1].mean(axis=1)
        half[ids] = _THETA_RH * Hd[in3].mean(axis=1)
        F[ids] = Fd[in3].mean(axis=1)
        low[ids] = Hh[in3].mean(axis=1)
    low = np.array([x ** (delta / dhat) for x in low.tolist()])
    return {"lhs": lhs, "half": half, "F": F, "low": low}


def energy_scans(
    u: GridFunction,
    weight: Weight,
    cfg: ExponentConfig,
    derived: DerivedExponents,
    omega: Region,
    R0: float,
) -> dict:
    """The reverse-Hoelder scan over the ball-pair family of ``omega`` at
    R0 (``gehring._ball_pair_family``), packaged as the premise of the
    self-improvement step:
    avg_{B_R} H_m^delta <= c (avg_{B_3R} H_m^delta_hat)^(delta/delta_hat)
    + c avg_{B_3R} F^delta + theta_rh avg_{B_3R} H_m^delta,
    with the certificate's tail coefficient theta_rh (``gehring._THETA_RH``).
    Returns the largest per-ball constant c, kappa = delta_hat/delta,
    delta, f1 = H_m^delta, f2 = F^delta and the family it walked, for the
    Gehring scan to walk again.
    """
    family = _ball_pair_family(u, omega, R0)
    F = global_majorant(u, weight, cfg, derived, omega.mask_for(u))
    Hm = double_phase_field(derivative_norm(u, cfg.m), weight, derived, cfg.q, cfg.m)
    delta = scan_delta(derived.delta0)
    dhat = delta_hat(cfg.n, cfg.p, cfg.q, cfg.alpha)
    Hm_vals = Hm.scalar()
    F_vals = F.scalar()
    t = _energy_walk(u, Hm_vals, F_vals, family, delta, dhat)
    # max(0, lhs - half)/(low + F), 0 where the denominator is not
    # positive, in the Python float arithmetic of one ball at a time
    constant = max(max(0.0, a - b) / d if d > 0 else 0.0
                   for a, b, d in zip(t["lhs"].tolist(), t["half"].tolist(), (t["low"] + t["F"]).tolist()))
    return {
        "constant": constant,
        "kappa": dhat / delta,
        "delta": delta,
        "f1": Hm.with_values((Hm_vals**delta)[..., None]),
        "f2": F.with_values((F_vals**delta)[..., None]),
        "family": family,
    }


def self_improve(
    u: GridFunction,
    weight: Weight,
    cfg: ExponentConfig,
    omega: Region,
    R0: float,
    derived: DerivedExponents | None = None,
) -> dict:
    """Full chain: validate, derive exponents, scan, certificate, verify.

    The measured reverse-Hoelder constant becomes the premise constant A,
    kappa = delta_hat/delta, eps0 = 1/delta0 - 1 (or 1/delta - 1 in the
    unit-target mode), and the improved-integrability inequality is then
    verified at eps_max over the ball family the scan walked.  ``stages``
    holds the exponents, the reverse-Hoelder constant with kappa, and the
    certificate.
    """
    if not validation_passes(validate(cfg)):
        return {"stages": {}, "status": "fail", "failed_stage": "validate"}
    if derived is None:
        derived = derive(cfg)
    rh = energy_scans(u, weight, cfg, derived, omega, R0=R0)
    A = max(rh["constant"], 1e-6)
    # the corollary's unit target takes eps0 from the scan exponent delta
    eps0 = 1.0 / (rh["delta"] if cfg.beta_src == 1.0 else derived.delta0) - 1.0
    cert = gehring_constants(cfg.n, A, rh["kappa"], eps0, R0=R0)
    f2_scaled = rh["f2"].with_values(A * rh["f2"].values)
    verify = gehring_verify(rh["f1"], f2_scaled, cert, rh["family"])
    ok = verify["premise_failures"] == 0 and math.isfinite(verify["conclusion_constant"])
    status = "pass" if ok and cert.eps_max > 0 else "fail"
    stages = {
        "exponents": derived.as_dict(),
        "reverse_holder": {"constant": rh["constant"], "kappa": rh["kappa"]},
        "certificate": cert.as_dict(),
    }
    return {"stages": stages, "status": status, "failed_stage": None if status == "pass" else "gehring_verify"}
