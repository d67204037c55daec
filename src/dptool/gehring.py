"""Self-improvement machinery: layer-cake identities, the iteration lemma
with its explicit constant, and the reverse-Hoelder-to-higher-integrability
step with the full derived constant chain

    d = (1+kappa)/2,        theta = (1/(4A+1))^(1/d),
    c1 = 2 5^n A,           c2 = 2 5^n,
    c* = 4 c1 (4A+1)^(1+2 eps0),   eps_max = min((1-kappa)/c*, eps0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridFunction, Region, _ball_rows, _ratio, _window_centers

__all__ = [
    "GehringCertificate",
    "layer_cake_check",
    "iteration_constant",
    "iteration_lemma_check",
    "gehring_constants",
    "gehring_verify",
]

# The reverse-Hoelder tail coefficient theta_rh: the premise that
# ``harness.energy_scans`` measures and every certificate take this one.
_THETA_RH = 0.5


@dataclass(frozen=True)
class GehringCertificate:
    n: int
    A: float
    kappa: float
    eps0: float
    theta_rh: float
    R0: float
    d: float
    theta_g: float
    c1: float
    c2: float
    c_star: float
    eps_max: float

    def as_dict(self) -> dict:
        return {
            "n": self.n, "A": self.A, "kappa": self.kappa, "eps0": self.eps0,
            "theta_rh": self.theta_rh, "R0": self.R0, "d": self.d,
            "theta_g": self.theta_g, "c1": self.c1, "c2": self.c2,
            "c_star": self.c_star, "eps_max": self.eps_max,
        }


def gehring_constants(
    n: int,
    A: float,
    kappa: float,
    eps0: float,
    R0: float = 0.5,
) -> GehringCertificate:
    """Populate the certificate and verify the absorption inequality.  The
    reverse-Hoelder tail coefficient theta_rh is ``_THETA_RH``, the one the
    reverse-Hoelder scan packages as its premise (``harness.energy_scans``)."""
    if n < 1:
        raise GridError(f"dimension n must be >= 1, got {n}")
    if not (0 < kappa < 1):
        raise GridError(f"kappa must lie in (0,1), got {kappa}")
    if A <= 0 or eps0 <= 0:
        raise GridError("A and eps0 must be positive")
    if not 0 < R0 < math.inf:
        raise GridError(f"R0 must be finite and positive, got {R0}")
    d = (1.0 + kappa) / 2.0
    theta_g = (1.0 / (4.0 * A + 1.0)) ** (1.0 / d)
    try:
        c1 = 2.0 * 5.0**n * A
        c2 = 2.0 * 5.0**n
        c_star = 4.0 * c1 * (4.0 * A + 1.0) ** (1.0 + 2.0 * eps0)
    except OverflowError:
        c_star = math.inf
    if not math.isfinite(c_star):
        raise GridError(f"c* is not a finite number for n={n}, A={A}, eps0={eps0}")
    eps_max = min((1.0 - kappa) / c_star, eps0)
    cert = GehringCertificate(
        n=n, A=A, kappa=kappa, eps0=eps0, theta_rh=_THETA_RH, R0=R0,
        d=d, theta_g=theta_g, c1=c1, c2=c2, c_star=c_star, eps_max=eps_max,
    )
    # absorption: A theta^d + 1/4 <= 1/2, exact since A theta^d = A/(4A+1)
    if A * theta_g**d + 0.25 > 0.5 + 1e-12:
        raise GridError("absorption inequality failed; certificate inconsistent")
    return cert


# ---------------------------------------------------------------------------
# layer cake and iteration lemma
# ---------------------------------------------------------------------------


def layer_cake_check(
    h: GridFunction,
    r: float,
    nodes: int,
) -> float:
    """Compare h^r against the level-set integral representation.

    For r > 0:  h(x)^r = r int_0^inf mu^(r-1) chi_{h > mu} dmu;
    for r < 0 the complementary form on {h > 0}.  The level integral uses
    the exact antiderivative on intervals where the sampled indicator is
    constant and adaptively bisects the one interval where it flips (50
    steps), so the residual reflects only the remaining flip-interval width.
    About 64 evenly ranked values of h are checked; returns the largest
    relative residual.
    """
    if r == 0:
        raise GridError("exponent must be nonzero")
    sel = h.scalar().reshape(-1)
    if r < 0:
        sel = sel[sel > 0]
    if sel.size == 0:
        raise GridError("no admissible sample points")
    stride = max(1, sel.size // 64)
    pts = np.sort(sel)[::stride]
    top = float(sel.max())
    mu = np.geomspace(top * 1e-8, top * (1 + 1e-9), nodes)

    def seg(a: float, b: float) -> float:
        # integral of |r| mu^(r-1) over [a, b]
        return abs(b**r - a**r) if a < b else 0.0

    # seg over every node interval at once; each power is the scalar one,
    # since the array power rounds differently in some elements
    powers = np.array([m**r for m in mu])
    segs = np.where(mu[:-1] < mu[1:], np.abs(powers[1:] - powers[:-1]), 0.0)

    worst = 0.0
    for x in pts:
        if r > 0:
            ind = x > mu
            # head below the node window where the indicator is certainly 1
            val = powers[0] if ind[0] else 0.0
        else:
            ind = x <= mu
            # tail above the window where the complementary indicator is 1
            val = top**r if ind[-1] else 0.0
        # add the segments where the indicator stays 1, one after another
        val = np.add.accumulate(np.concatenate(([val], segs[ind[:-1] & ind[1:]])))[-1]
        flips = np.flatnonzero(ind[:-1] != ind[1:])
        if len(flips):  # bisect the last interval where the indicator flips
            flip = lo, hi = mu[flips[-1]], mu[flips[-1] + 1]
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                inside = (x > mid) if r > 0 else (x <= mid)
                # keep the half where the indicator still flips
                if inside == ((x > lo) if r > 0 else (x <= lo)):
                    lo = mid
                else:
                    hi = mid
            if r > 0:
                val += seg(flip[0], lo)
            else:
                val += seg(hi, flip[1])
        target = x**r
        worst = max(worst, abs(val - target) / abs(target))
    return worst


def iteration_constant(tau: float, gamma: float) -> float:
    """c(tau, gamma) = sum_i tau^i ((i+1)(i+2))^gamma, summed until the
    geometric tail bound drops below 1e-12."""
    if not (0 <= tau < 1):
        raise GridError(f"tau must lie in [0,1), got {tau}")
    if gamma < 0:
        raise GridError("gamma must be >= 0")
    total = 0.0
    i = 0
    while True:
        term = tau**i * ((i + 1.0) * (i + 2.0)) ** gamma
        total += term
        # ((i+2)(i+3))^g / ((i+1)(i+2))^g <= ((i+3)/(i+1))^g -> 1, so for
        # large i the tail is dominated by a geometric series with ratio
        # tau * ((i+3)/(i+1))^g once that ratio is < 1
        ratio = tau * ((i + 3.0) / (i + 1.0)) ** gamma
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < 1e-12:
            break
        i += 1
        if i > 10_000_000:
            raise GridError("iteration constant did not converge")
    return total


def iteration_lemma_check(
    h_values: np.ndarray,
    radii: np.ndarray,
    tau: float,
    C1: float,
    C2: float,
    gamma: float,
) -> dict:
    """Premise and conclusion of the hole-filling iteration lemma, each as
    a ratio that is at most 1 when it holds.

    ``h_values`` samples a nonnegative bounded function on the increasing
    radii grid.  ``premise`` is the largest h(s) / (tau h(t) + C1 +
    C2/(t-s)^gamma) over about 200 evenly spaced pairs s < t, and
    ``conclusion`` is h(R0) / (C1/(1-tau) + c(tau,gamma) C2/(R1-R0)^gamma),
    which the lemma bounds by 1 when the premise holds.
    """
    radii = np.asarray(radii, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    if np.any(h_values < 0):
        raise GridError("h must be nonnegative")
    k = len(radii)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    stride = max(1, len(pairs) // 200)
    premise = max((_ratio(h_values[i], tau * h_values[j] + C1 + C2 / (radii[j] - radii[i]) ** gamma)
                   for i, j in pairs[::stride]), default=0.0)
    rhs = C1 / (1.0 - tau) + iteration_constant(tau, gamma) * C2 / (radii[-1] - radii[0]) ** gamma
    return {"premise": float(premise), "conclusion": float(_ratio(h_values[0], rhs))}


# ---------------------------------------------------------------------------
# the self-improvement scan
# ---------------------------------------------------------------------------


def _ball_pair_family(grid: GridFunction, omega: Region | None, R0: float):
    """Concentric (B_R, B_3R) pairs: centers on every 8th lattice cell per
    axis, radii R0, R0/2 and R0/4 while at least 4 cell widths, B_3R inside
    the lattice box and the ball ``omega``.  Returns the centers, shape
    ``(K, n)``, and the radii R, shape ``(K,)``; raises GridError when no
    pair fits.

    ``self_improve`` builds it once: the reverse-Hoelder scan walks it and
    hands it to ``gehring_verify``, so a constant measured by the scan
    transfers verbatim to the premise, on the same balls in the same order.
    """
    every_8th = (slice(None, None, 8),) * grid.n
    omask = np.ones(grid.dims, dtype=bool) if omega is None else omega.mask_for(grid)
    cand = _window_centers(grid, every_8th)[omask[every_8th]]
    centers, radii = [np.zeros((0, grid.n))], [np.zeros(0)]
    R = R0
    for _ in range(3):
        if R < 4 * grid.spacing:
            break
        keep = _inside(cand, 3 * R, grid.box_lo, grid.box_hi)
        if omega is not None:
            d = cand - omega.center
            # one dot per row, the one np.linalg.norm takes of a single center
            keep &= np.sqrt((d[:, None] @ d[..., None])[:, 0, 0]) + 3 * R <= omega.radius + 1e-12
        centers.append(cand[keep])
        radii.append(np.full(len(centers[-1]), R))
        R /= 2.0
    centers, radii = np.concatenate(centers), np.concatenate(radii)
    if not len(radii):
        raise GridError("no admissible ball pairs: domain too small for R0")
    return centers, radii


def _inside(c: np.ndarray, r: float, lo, hi) -> np.ndarray:
    """Which balls B_r(c), one per row of ``c``, lie in the box [lo, hi]."""
    return np.all(c - r >= lo, axis=1) & np.all(c + r <= hi, axis=1)


def _gehring_walk(f1: GridFunction, f2: GridFunction, cert: GehringCertificate, family: tuple, mode: str):
    """Per ball pair (B_R(c), B_3R(c)) of ``family``, in order: whether the
    premise applies, the premise constant it requires (0.0 where it does not
    apply) and the measured conclusion constant, one array each.

    Each average is ``mean_over``'s, sum * h^n / (count * h^n), over one
    gathered row per ball; each power is taken once over the lattice."""
    centers, R = family
    eps, cv = cert.eps_max, f1.cell_volume
    v1, v2 = f1.values.reshape(-1), f2.values.reshape(-1)
    # (field, 0 for B_R or 1 for B_3R) of each average, in the order read below
    terms = ((v1, 0), (np.abs(v1) ** (1.0 + eps), 0), (v1, 1), (np.abs(v1) ** cert.kappa, 1),
             (v2, 1), (np.abs(v2) ** (1.0 + eps), 1))
    avg = np.empty((len(terms), len(R)))
    for ids, rows in _ball_rows(f1, centers, R, 3 * R):
        for t, (vals, j) in enumerate(terms):
            avg[t, ids] = vals[rows[j]].sum(axis=1) * cv / (rows[j].shape[1] * cv)
    applicable, A_required, conclusion = [], [], []
    for a1, l1, a3, m3k, g3, l3 in avg.T.tolist():
        a3k = m3k ** (1.0 / cert.kappa)
        if mode == "conditional":
            applies = a3 <= a1 + 1e-15
            lhs_req = a1 - g3
        else:
            applies = True
            lhs_req = a1 - g3 - cert.theta_rh * a3
        applicable.append(applies)
        A_required.append(_ratio(max(0.0, lhs_req), a3k) if applies else 0.0)
        conclusion.append(_ratio(l1 ** (1.0 / (1.0 + eps)), a3 + l3 ** (1.0 / (1.0 + eps))))
    return np.array(applicable, dtype=bool), np.array(A_required), np.array(conclusion)


def gehring_verify(
    f1: GridFunction,
    f2: GridFunction,
    cert: GehringCertificate,
    family: tuple,
    mode: str = "all",
) -> dict:
    """Scan the concentric ball pairs (B_R(c), B_3R(c)) of ``family``, the
    centers and radii ``_ball_pair_family`` returns: premise with the
    supplied constants, then the improved-integrability conclusion, at the
    certificate's eps_max, with measured constants.

    ``mode="all"`` demands the reverse-Hoelder premise (with the theta tail
    term) on every scanned pair; ``mode="conditional"`` demands it (without
    the tail term) only on pairs where the large-ball average does not
    exceed the small-ball average.
    """
    if mode not in ("all", "conditional"):
        raise GridError(f"unknown premise mode {mode!r}")
    if np.any(f1.scalar() < 0) or np.any(f2.scalar() < 0):
        raise GridError("inputs must be nonnegative")
    if not f1.same_lattice(f2):
        raise GridError("f1 and f2 must share the lattice")
    pairs = len(family[1])
    applicable, A_required, conclusion = _gehring_walk(f1, f2, cert, family, mode)
    ok = ~applicable | (A_required <= cert.A * (1 + 1e-9))
    failures = int(np.count_nonzero(~ok))
    return {
        "pairs": pairs,
        "premise_failures": failures,
        "premise_pass_fraction": 1.0 - failures / pairs,
        "A_required_max": max([0.0, *A_required[applicable].tolist()]),
        "conclusion_constant": max([0.0, *conclusion[ok & applicable].tolist()]),
        "eps": cert.eps_max,
        "mode": mode,
    }
