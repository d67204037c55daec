"""Metamorphic properties of ``maximal.maximal_stack``, bit for bit.

Two relations hold exactly in floating point, so they are checked with
``tobytes`` on random 1-D, 2-D and 3-D stacks in both modes, with random
fractional orders and iteration counts:

- scaling every field by 4 scales every result by exactly 4, since each
  sum, product and square root along the way scales by a power of two;
- moving the lattice origin by 7 cells leaves every result unchanged when
  no field is restricted, since nothing but a restriction reads the origin.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dptool import grid as g  # noqa: E402
from dptool.maximal import MaximalSpec, maximal_stack  # noqa: E402

MAX_SIDE = {1: 48, 2: 16, 3: 7}


@st.composite
def stacks(draw, restricted):
    """Fields on one lattice and their specs; a spec may restrict its field
    to a ball about the box center when ``restricted``."""
    n = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(2, MAX_SIDE[n])) for _ in range(n))
    spacing = draw(st.sampled_from([1.0, 0.5, 1.0 / 7.0, 0.013, 3.0]))
    origin = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    components = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["centered", "uncentered"]))
    middle = origin + np.asarray(dims) * spacing / 2
    fields, specs = [], []
    for _ in range(draw(st.integers(1, 3))):
        values = rng.normal(size=dims + (components,)) * draw(st.sampled_from([1.0, 1e-3, 250.0]))
        fields.append(g.GridFunction(n, dims, origin, spacing, components, values))
        region = g.ball(middle, max(dims) * spacing / 3) if restricted and draw(st.booleans()) else None
        specs.append(MaximalSpec(beta=draw(st.sampled_from([0.0, 0.25, 0.5, n - 0.5])), mode=mode,
                                 restriction=region, iterations=draw(st.integers(1, 3))))
    return fields, specs


@settings(max_examples=96, deadline=None, database=None, derandomize=True)
@given(case=stacks(restricted=True))
def test_scaling_by_four_scales_the_maximal_function_exactly(case):
    fields, specs = case
    scaled = maximal_stack([f.with_values(4.0 * f.values) for f in fields], specs)
    for got, want in zip(scaled, maximal_stack(fields, specs)):
        assert got.values.tobytes() == (4.0 * want.values).tobytes()


@settings(max_examples=96, deadline=None, database=None, derandomize=True)
@given(case=stacks(restricted=False))
def test_moving_the_origin_leaves_the_maximal_function_unchanged(case):
    fields, specs = case
    moved = [g.GridFunction(f.n, f.dims, f.origin + 7 * f.spacing, f.spacing, f.components, f.values)
             for f in fields]
    for got, want in zip(maximal_stack(moved, specs), maximal_stack(fields, specs)):
        assert got.values.tobytes() == want.values.tobytes()
        assert got.origin.tobytes() == (fields[0].origin + 7 * fields[0].spacing).tobytes()
