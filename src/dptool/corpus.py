"""Reproducible verification corpus: truncated Fourier samples drawn from
a given seed (``verify``'s default is DEFAULT_SEED = 0x5EED), so every
measured constant in the reports is tied to a deterministic input family.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, box, create_grid

__all__ = ["DEFAULT_SEED", "fourier_corpus", "fourier_sampler"]

DEFAULT_SEED = 0x5EED


def fourier_sampler(rng: np.random.Generator, n: int):
    """One random truncated Fourier sum of three modes as a pointwise sampler."""
    modes = 3
    ks = rng.integers(1, modes + 1, size=(modes, n))
    phases = rng.uniform(0, 2 * np.pi, size=modes)
    coeffs = rng.normal(0.0, 1.0 / modes, size=modes)

    def sampler(pts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pts))
        for k, ph, c in zip(ks, phases, coeffs):
            out += c * np.cos(np.pi * (pts @ k.astype(float)) + ph)
        return out

    return sampler


def fourier_corpus(
    n: int,
    count: int,
    resolution: int,
    lo=-1.0,
    hi=1.0,
    *,
    seed: int,
) -> list[GridFunction]:
    """Deterministic corpus of sampled oscillatory fields."""
    rng = np.random.default_rng(seed)
    extent = box([lo] * n, [hi] * n)
    return [
        create_grid(extent, resolution, fourier_sampler(rng, n))
        for _ in range(count)
    ]
