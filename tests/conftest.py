"""Shared fixtures.  Heavier objects (regularized weights, corpora) are
session-scoped so the expensive O(N^2) sweeps run once."""

import numpy as np
import pytest

from dptool import grid as g
from dptool.corpus import fourier_corpus
from dptool.weights import Weight, regularize


@pytest.fixture(scope="session")
def box2():
    return g.box([-0.5, -0.5], [0.5, 0.5])


@pytest.fixture(scope="session")
def weight64(box2):
    a = g.create_grid(box2, 64, lambda p: np.linalg.norm(p, axis=1) ** 0.5)
    return Weight(a=regularize(a, 0.5, diverging=False), alpha=0.5)


@pytest.fixture(scope="session")
def corpus2_64():
    return fourier_corpus(2, 20, 64, lo=-0.5, hi=0.5, seed=0x5EED)


@pytest.fixture(scope="session")
def corpus1_256():
    return fourier_corpus(1, 20, 256, seed=0x5EED)
