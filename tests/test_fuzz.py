"""Property-based fuzzing of the CLI exit-code contract on hostile DPGRID input.

``dptool maximal`` runs in a subprocess on files with random header fields
and payload lengths.  The contract: exit 0 on success and 2 on an input
error, with exactly one ``error:`` line, and never a traceback.  Exit 1
means a failed check, and ``maximal`` runs none.  Header dims stay small
enough that a payload matching them is a few KB; the huge dims only ever
come with a short payload, which the reader must reject before allocating.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import dptool  # noqa: E402

SRC = str(Path(dptool.__file__).resolve().parent.parent)
# every example starts a Python process (about a second); keep Tier-1 short
MAX_EXAMPLES = 4

junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(), st.lists(st.integers(-1, 3), max_size=2))
numbers = st.one_of(st.floats(-4.0, 4.0), st.floats(), st.integers(-3, 3), st.sampled_from([1e-300, 1e300]))
# a corrupted field: a wrong value of the right kind, or one of the wrong kind
hostile = {
    "magic": st.sampled_from(["dpgrid", "", None]),
    "version": st.sampled_from([0, 2, "1", 1.0, True]),
    "n": st.one_of(st.integers(-1, 5), junk),
    "dims": st.one_of(st.lists(st.one_of(st.integers(-1, 9), st.sampled_from([10**6, 2**62]), junk), max_size=4), junk),
    "origin": st.one_of(st.lists(numbers, max_size=4), junk),
    "spacing": st.one_of(numbers, junk),
    "components": st.one_of(st.integers(-1, 0), st.sampled_from([2**62]), junk),
}


@st.composite
def dpgrid_files(draw):
    """A valid header with up to two fields corrupted or dropped, and a
    payload of the header's length give or take a few bytes."""
    n = draw(st.integers(1, 3))
    header = {
        "magic": "DPGRID",
        "version": 1,
        "n": n,
        "dims": draw(st.lists(st.integers(2, 9), min_size=n, max_size=n)),
        "origin": draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)),
        "spacing": draw(st.floats(0.01, 1.0)),
        "components": draw(st.integers(1, 3)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(hostile)), max_size=2, unique=True)):
        if draw(st.integers(0, 3)):
            header[key] = draw(hostile[key])
        else:
            del header[key]
    dims, comps = header.get("dims"), header.get("components")
    ints = isinstance(dims, list) and all(type(d) is int for d in dims) and type(comps) is int
    count = math.prod(dims) * comps if ints else 0
    if 0 <= count * 8 <= 20_000:
        payload_len = max(0, count * 8 + draw(st.sampled_from([0, 0, 0, -8, -1, 1, 8])))
    else:
        payload_len = draw(st.integers(0, 64))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=payload_len // 8 + 1)
    values[: draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, 1e300, 0.0]))
    payload = values.astype("<f8").tobytes()[:payload_len]
    return json.dumps(header).encode("utf-8") + b"\n" + payload, header


@settings(max_examples=MAX_EXAMPLES, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=dpgrid_files())
def test_maximal_on_hostile_dpgrid_keeps_exit_contract(tmp_path, case):
    data, header = case
    path = tmp_path / "in.dpgrid"
    path.write_bytes(data)
    out = tmp_path / "out.dpgrid"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "dptool.cli", "maximal", "--input", str(path), "--output", str(out)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in res.stderr, (header, res.stderr)
    assert res.returncode in (0, 2), (header, res.returncode, res.stderr)
    if res.returncode == 2:
        assert len([line for line in res.stderr.splitlines() if line.startswith("error:")]) == 1, res.stderr
    else:
        assert out.exists(), header
