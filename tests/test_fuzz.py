"""Property-based fuzzing of the CLI exit-code contract.

``dptool maximal`` runs in a subprocess on DPGRID files with random header
fields and payload lengths, every command runs in process through
``cli.main`` on hostile numeric and ball arguments, and ``maximal`` and
``regularize`` run in process on a pinned set of hostile CSV shapes.  The contract: exit 0
on success and 2 on an input error, with exactly one ``error:`` line, and
never a traceback or a warning.  Exit 1 means a failed check, so only
``verify``, ``gehring --verify`` and a diverging ``regularize`` may return
it.  Every number printed on exit 0 is finite.  Header dims stay small
enough that a payload matching them is a few KB; the huge dims only ever
come with a short payload, which the reader must reject before allocating,
and the argument fuzz runs on 32^2 grids.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import dptool  # noqa: E402
from dptool import grid as g  # noqa: E402
from dptool.cli import main  # noqa: E402
from dptool.dpgrid_io import read_dpgrid, write_dpgrid  # noqa: E402

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


# every command with arguments that run, over the 2-D files {f}, {a} and
# {phi} and the config {cfg}, writing {out}; a case corrupts up to two of
# its values
GEHRING = {"--n": "2", "--A": "1", "--kappa": "0.5", "--eps0": "0.5", "--R0": "0.25"}
COMMANDS = {
    "maximal": (["maximal", "--input", "{f}", "--output", "{out}"],
                {"--beta": "0.5", "--iterate": "2", "--restrict": "ball:0,0,0.5"}),
    "riesz": (["riesz", "--input", "{f}", "--output", "{out}"], {"--gamma": "0.5", "--ball": "0,0,0.5"}),
    "polyfit": (["polyfit", "--input", "{f}", "--weight", "{a}"],
                {"--ball": "0,0,0.8", "--order": "2", "--center": "0,0"}),
    "regularize": (["regularize", "--input", "{a}", "--output", "{out}"], {"--alpha": "0.5"}),
    "truncate": (["truncate", "--u", "{f}", "--a", "{a}", "--config", "{cfg}", "--output", "{out}"],
                 {"--lambda-mult": "1.5", "--ball": "0,0,0.2"}),
    "gehring": (["gehring"], GEHRING),
    "gehring-verify": (["gehring", "--verify", "--f1", "{f}", "--f2", "{a}"], GEHRING),
    "residual": (["residual", "--u", "{f}", "--a", "{a}", "--phi", "{phi}"], {"--p": "2", "--q": "2.2"}),
    "verify": (["verify", "--suite", "grid", "--report", "{out}"], {"--grid-size": "32", "--seed": "7"}),
}
HOSTILE = ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-0", "-1", "1e-308", "2.5", "100000000"]
numbers = st.one_of(st.sampled_from(HOSTILE), st.sampled_from(["0.25", "0.5", "1", "2", "3"]))


@st.composite
def argument_cases(draw):
    """A command line with up to two values replaced by hostile or ordinary
    numbers; a ball or a center gets the right arity or one fewer or more."""
    head, values = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    values = dict(values)
    for flag in draw(st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True)):
        prefix, sep, text = values[flag].rpartition(":")
        arity = text.count(",") + 1
        if arity > 1:
            arity = draw(st.sampled_from([arity, arity - 1, arity + 1]))
        values[flag] = prefix + sep + ",".join(draw(st.lists(numbers, min_size=arity, max_size=arity)))
    return head + [item for flag, value in values.items() for item in (flag, value)]


def printed_numbers(obj):
    """Every number in a parsed JSON document, with the strings that the
    report writer uses for non-finite floats read back as floats."""
    if isinstance(obj, dict):
        for value in obj.values():
            yield from printed_numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from printed_numbers(value)
    elif isinstance(obj, str) and obj in ("nan", "inf", "-inf"):
        yield float(obj)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


@pytest.fixture(scope="module")
def argument_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("args")
    b = g.box([-1.0, -1.0], [1.0, 1.0])
    fields = {"f": lambda p: np.exp(-3 * np.sum(p**2, axis=1)), "a": lambda p: np.linalg.norm(p, axis=1) ** 0.5,
              "phi": lambda p: np.maximum(0.5 - np.sum(p**2, axis=1), 0.0) ** 2}
    paths = {"cfg": root / "cfg.json", "out": root / "out"}
    for name, sampler in fields.items():
        paths[name] = root / f"{name}.dpgrid"
        write_dpgrid(paths[name], g.create_grid(b, 32, sampler))
    paths["cfg"].write_text(json.dumps({"n": 2, "m": 1, "p": 2.0, "q": 2.2, "alpha": 0.5}))
    return paths


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argument_cases())
def test_numeric_and_ball_arguments_keep_exit_contract(argument_files, argv):
    argument_files["out"].unlink(missing_ok=True)
    argv = [arg.format(**argument_files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: usage, then one error line
            rc = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err, (argv, err)
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc == 1:
        assert argv[0] == "verify" or "--verify" in argv or '"diverging"' in out, (argv, out, err)
    if rc == 2:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, (argv, err)
    if rc == 0 and out:
        numbers = list(printed_numbers(json.loads(out)))
        assert all(math.isfinite(x) for x in numbers), (argv, out)


@pytest.mark.parametrize("ball", ["0,0,1e307", "0,0,1e160", "1e200,0,0.5"])
def test_truncate_ball_past_float_range_names_ball(argument_files, ball):
    head, values = COMMANDS["truncate"]
    values = dict(values, **{"--ball": ball})
    argv = [arg.format(**argument_files) for arg in head] + [item for kv in values.items() for item in kv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    lines = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert rc == 2 and len(lines) == 1 and "--ball" in lines[0], err.getvalue()


def lattice_csv(h=0.25, header="x0,x1,c0", sep=",", eol="\n", descending=False):
    """A 4 x 4 lattice in CSV form with spacing ``h``, one row per cell."""
    rows = [((i + 0.5) * h, (j + 0.5) * h, 1.0 + i + 0.5 * j * j) for i in range(4) for j in range(4)]
    rows = rows[::-1] if descending else rows
    return header + eol + eol.join(sep.join(repr(v) for v in row) for row in rows) + eol


# the CSV shapes a hostile input takes: each exits 2 with one error line,
# or exits 0 with finite output
CSV_SHAPES = {
    "bom-header": ("\ufeff" + lattice_csv(), 2),
    "3-d-columns": ("x0,x1,x2,c0\n" + "".join(f"{i},{j},{k},1\n" for i in (0, 1) for j in (0, 1) for k in (0, 1)), 2),
    "partial-lattice": (lattice_csv().rsplit("\n", 2)[0] + "\n", 2),
    "hex": ("x0,c0\n" + "".join(f"{float(i).hex()},{float(i).hex()}\n" for i in range(4)), 2),
    "x-alone": ("x\n0\n1\n2\n", 2),
    "1e308-coordinates": ("x0,c0\n-1e308,1\n1e308,2\n", 2),
    "values-column-first": ("c0,x1\n1,0.5\n2,1.5\n", 2),
    "rows-wider-than-header": ("x0,c0\n" + "".join(f"{i},{i},{i}\n" for i in range(4)), 2),
    "descending-rows": (lattice_csv(descending=True), 0),
    "crlf": (lattice_csv(eol="\r\n"), 0),
    "spaces-after-commas": (lattice_csv(sep=", "), 0),
    # spacings from the subnormal 1e-320 to 1e150
    **{f"spacing-{h}": (lattice_csv(h=float(h)), 0) for h in ("1e-320", "1e-300", "1e-150", "1e-10", "1e10", "1e100", "1e150")},
}


@pytest.mark.parametrize("argv", [["maximal"], ["regularize", "--alpha", "0.5"]], ids=["maximal", "regularize"])
@pytest.mark.parametrize("shape", sorted(CSV_SHAPES))
def test_csv_shapes_keep_exit_contract(tmp_path, shape, argv):
    text, want = CSV_SHAPES[shape]
    path, out = tmp_path / "in.csv", tmp_path / "out.dpgrid"
    path.write_bytes(text.encode("utf-8"))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([argv[0], "--input", str(path), *argv[1:], "--output", str(out)])
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    assert "Traceback" not in stdout + stderr, stderr
    assert rc == want, (rc, stderr)
    if want == 2:
        assert stdout == "" and not out.exists()
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    else:
        assert all(math.isfinite(x) for x in printed_numbers(json.loads(stdout or "{}")))
        assert np.all(np.isfinite(read_dpgrid(out).values))
