"""``run_suite("all")`` across worker processes: the report equals the
serial one, and failures, output and process lifetimes stay as they would
be in one process."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dptool
from dptool import suites
from dptool.cli import main
from dptool.grid import GridError
from dptool.reporting import Check, ScanReport, to_json
from dptool.suites import DEFAULT_GRID_SIZE, SUITE_NAMES, lattice_sizes, run_suite

KEYS = SUITE_NAMES[:-1]
DEFAULT_SIZES = lattice_sizes(DEFAULT_GRID_SIZE)


def cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture()
def deadline():
    """Fail a run that hangs instead of hanging the test session."""
    def expire(signum, frame):
        raise TimeoutError("run_suite did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def stub_suites(monkeypatch, act):
    """Replace every suite by one that calls ``act(key, in_child)``, then
    reports the process it ran in and numpy's error state there."""
    parent = os.getpid()

    def make(key):
        def suite(sizes, seed):
            act(key, os.getpid() != parent)
            rep = ScanReport(key, {"seed": seed})
            rep.add(Check("ran", "pass"))
            rep.constants["pid"] = os.getpid()
            rep.constants["errstate"] = {k: np.geterr()[k] for k in ("over", "invalid", "divide")}
            return rep
        return suite

    for key in KEYS:
        monkeypatch.setitem(suites._SUITES, key, make(key))


def slow_in_parent(key, in_child):
    if not in_child:
        time.sleep(0.05)  # leaves the children suites to claim


def serial_report(seed: int) -> str:
    """The verify-all report assembled from one ``run_suite(key)`` call per suite."""
    combined = ScanReport("all", {"sizes": dict(DEFAULT_SIZES), "seed": seed})
    for key in KEYS:
        sub = run_suite(key, seed, DEFAULT_SIZES)
        assert ("sizes" in sub.config_echo) == (key != "exponents"), key  # every lattice suite echoes them
        for c in sub.checks:
            combined.add(Check(f"{key}: {c.name}", c.status, c.measured, c.bound, c.tolerance, c.detail))
        combined.constants[key] = sub.constants
    return to_json(combined.as_dict())


@pytest.mark.parametrize("seed", [0x5EED, 1])
def test_all_equals_the_serial_suites(monkeypatch, deadline, seed):
    expected = serial_report(seed)
    for count in (1, 3):
        cpus(monkeypatch, count)
        assert to_json(run_suite("all", seed, DEFAULT_SIZES).as_dict()) == expected, f"{count} CPUs"
    assert no_children_left()


@pytest.mark.parametrize("grid_size", [112, 160])
def test_all_passes_on_a_size_ladder(grid_size):
    """Every fixture follows --grid-size, and each still holds off the default 128."""
    assert run_suite("all", 0x5EED, lattice_sizes(grid_size)).status == "pass"


def test_every_suite_runs_once_with_more_workers_than_cores(monkeypatch, tmp_path, deadline):
    log = tmp_path / "ran.log"

    def act(key, in_child):
        with open(log, "a") as fh:  # one short append per line: lines do not interleave
            fh.write(f"{key}\n")

    cpus(monkeypatch, 16)
    stub_suites(monkeypatch, act)
    for _ in range(5):
        log.write_text("")
        report = run_suite("all", 0, DEFAULT_SIZES)
        assert sorted(log.read_text().split()) == sorted(KEYS)
        assert list(report.constants) == list(KEYS)
    assert no_children_left()


def test_children_run_under_the_cli_errstate(monkeypatch, tmp_path, deadline):
    cpus(monkeypatch, 3)
    stub_suites(monkeypatch, slow_in_parent)
    assert main(["verify", "--suite", "all", "--output-dir", str(tmp_path)]) == 0
    constants = json.loads((tmp_path / "report_all.json").read_text())["constants"]
    assert list(constants) == list(KEYS)
    assert {c["pid"] for c in constants.values()} - {os.getpid()}
    assert all(c["errstate"] == {"over": "raise", "invalid": "raise", "divide": "raise"} for c in constants.values())
    assert no_children_left()


def test_suite_error_in_a_child_keeps_the_exit_contract(monkeypatch, tmp_path, capsys, deadline):
    def act(key, in_child):
        slow_in_parent(key, in_child)
        if in_child:
            raise GridError(f"{key} has no lattice")

    cpus(monkeypatch, 3)
    stub_suites(monkeypatch, act)
    with pytest.raises(GridError, match="has no lattice"):
        run_suite("all", 0, DEFAULT_SIZES)
    assert main(["verify", "--suite", "all", "--output-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "has no lattice" in captured.err
    assert no_children_left()


def test_first_failing_suite_in_order_is_raised(monkeypatch, deadline):
    def act(key, in_child):
        slow_in_parent(key, in_child)
        raise GridError(key)

    cpus(monkeypatch, 3)
    stub_suites(monkeypatch, act)
    with pytest.raises(GridError, match=f"^{KEYS[0]}$"):
        run_suite("all", 0, DEFAULT_SIZES)
    assert no_children_left()


def test_a_child_that_dies_makes_the_parent_raise(monkeypatch, deadline):
    def act(key, in_child):
        slow_in_parent(key, in_child)
        if in_child:
            os._exit(1)

    cpus(monkeypatch, 2)
    stub_suites(monkeypatch, act)
    with pytest.raises(RuntimeError, match="ended before sending its reports"):
        run_suite("all", 0, DEFAULT_SIZES)
    assert no_children_left()


class Interrupted(BaseException):
    pass


def test_children_are_reaped_when_the_parent_raises(monkeypatch, deadline):
    def act(key, in_child):
        if in_child:
            time.sleep(60)
        time.sleep(0.2)  # while the children are busy
        raise Interrupted

    cpus(monkeypatch, 3)
    stub_suites(monkeypatch, act)
    t0 = time.monotonic()
    with pytest.raises(Interrupted):
        run_suite("all", 0, DEFAULT_SIZES)
    assert time.monotonic() - t0 < 10
    assert no_children_left()


def test_output_buffered_before_the_fork_is_written_once(tmp_path):
    code = (
        "import os, sys; from dptool import suites; from dptool.reporting import ScanReport\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "suites._SUITES = {key: (lambda sizes, seed: ScanReport('stub', {})) for key in suites._SUITES}\n"
        "print('before the fork', end=''); sys.stderr.write('on stderr')\n"
        "suites.run_suite('all', 0, suites.lattice_sizes(128))\n")
    src = str(Path(dptool.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # the streams must buffer for the test to see a double write
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path,
                         timeout=60)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout == "before the fork"
    assert res.stderr == "on stderr"
