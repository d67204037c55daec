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

from .grid import GridError, GridFunction, Region, _ball_cells, _ratio, _window_centers

__all__ = [
    "GehringCertificate",
    "layer_cake_check",
    "iteration_constant",
    "iteration_lemma_check",
    "gehring_constants",
    "gehring_verify",
]


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
    reverse-Hoelder tail coefficient theta_rh is 1/2, the one the
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
        n=n, A=A, kappa=kappa, eps0=eps0, theta_rh=0.5, R0=R0,
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
    axis, radii R0, R0/2 and R0/4 while at least 4 cell widths.

    The reverse-Hoelder scan and this scan walk this one family, in this
    order, so a constant measured by a scan transfers verbatim to the
    premise here.
    """
    every_8th = (slice(None, None, 8),) * grid.n
    omask = np.ones(grid.dims, dtype=bool) if omega is None else omega.mask_for(grid)
    cand = _window_centers(grid, every_8th)[omask[every_8th]]
    lo, hi = grid.box_lo, grid.box_hi
    pairs = []
    R = R0
    for _ in range(3):
        if R < 4 * grid.spacing:
            break
        for c in cand:
            if np.all(c - 3 * R >= lo) and np.all(c + 3 * R <= hi):
                if omega is None or _ball_inside(omega, c, 3 * R):
                    pairs.append((c, R))
        R /= 2.0
    return pairs


def _ball_inside(omega: Region, c: np.ndarray, r: float) -> bool:
    if omega.kind == "ball":
        return bool(np.linalg.norm(c - omega.center) + r <= omega.radius + 1e-12)
    return bool(np.all(c - r >= omega.lo) and np.all(c + r <= omega.hi))


def _window_mean(vals: np.ndarray, inside: np.ndarray, cell_volume: float,
                 power: float | None = None) -> float:
    """``mean_over`` of the first component on the window cells ``inside``,
    with the same selection and arithmetic."""
    sel = vals[inside]
    if power is not None:
        sel = np.abs(sel) ** float(power)
    return float((sel.sum(axis=0) * cell_volume / (float(inside.sum()) * cell_volume))[0])


def _gehring_walk(f1: GridFunction, f2: GridFunction, cert: GehringCertificate, pairs: list, mode: str):
    """Per ball pair of ``pairs``, in order: whether the premise applies, the
    premise constant it requires (0.0 where it does not apply) and the
    measured conclusion constant, one array each."""
    eps = cert.eps_max
    applicable, A_required, conclusion = [], [], []
    for c, R in pairs:
        slices, _centers, _d2, (in1, in3) = _ball_cells(f1, c, R, 3 * R)
        w1, w2 = f1.values[slices], f2.values[slices]
        a1 = _window_mean(w1, in1, f1.cell_volume)
        a3 = _window_mean(w1, in3, f1.cell_volume)
        a3k = _window_mean(w1, in3, f1.cell_volume, power=cert.kappa) ** (1.0 / cert.kappa)
        g3 = _window_mean(w2, in3, f2.cell_volume)
        if mode == "conditional":
            applies = a3 <= a1 + 1e-15
            lhs_req = a1 - g3
        else:
            applies = True
            lhs_req = a1 - g3 - cert.theta_rh * a3
        applicable.append(applies)
        A_required.append(_ratio(max(0.0, lhs_req), a3k) if applies else 0.0)
        lhs_c = _window_mean(w1, in1, f1.cell_volume, power=1.0 + eps) ** (1.0 / (1.0 + eps))
        rhs_c = a3 + _window_mean(w2, in3, f2.cell_volume, power=1.0 + eps) ** (1.0 / (1.0 + eps))
        conclusion.append(_ratio(lhs_c, rhs_c))
    return np.array(applicable, dtype=bool), np.array(A_required), np.array(conclusion)


def gehring_verify(
    f1: GridFunction,
    f2: GridFunction,
    cert: GehringCertificate,
    omega: Region | None = None,
    mode: str = "all",
) -> dict:
    """Scan concentric ball pairs: premise with the supplied constants, then
    the improved-integrability conclusion, at the certificate's eps_max,
    with measured constants.

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
    pairs = _ball_pair_family(f1, omega, cert.R0)
    if not pairs:
        raise GridError("no admissible ball pairs: domain too small for R0")
    applicable, A_required, conclusion = _gehring_walk(f1, f2, cert, pairs, mode)
    ok = ~applicable | (A_required <= cert.A * (1 + 1e-9))
    failures = int(np.count_nonzero(~ok))
    return {
        "pairs": len(pairs),
        "premise_failures": failures,
        "premise_pass_fraction": 1.0 - failures / len(pairs),
        "A_required_max": max([0.0, *A_required[applicable].tolist()]),
        "conclusion_constant": max([0.0, *conclusion[ok & applicable].tolist()]),
        "eps": cert.eps_max,
        "mode": mode,
    }
