"""DPGRID file format, version 1, plus a reader for the CSV form for n <= 2.

A DPGRID file is a single UTF-8 JSON header line
``{"magic":"DPGRID","version":1,"n":...,"dims":[...],"origin":[...],
"spacing":...,"components":...}`` terminated by one newline, followed by
``prod(dims) * components`` IEEE-754 float64 values, little-endian,
row-major over axes with the component index fastest.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .grid import GridError, GridFunction

__all__ = ["write_dpgrid", "read_dpgrid", "read_csv", "load_grid"]

_MAGIC = "DPGRID"
_VERSION = 1


def write_dpgrid(path: str | Path, u: GridFunction) -> None:
    header = {
        "magic": _MAGIC,
        "version": _VERSION,
        "n": u.n,
        "dims": list(u.dims),
        "origin": [float(x) for x in u.origin],
        "spacing": u.spacing,
        "components": u.components,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_float(x, name: str) -> float:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            pass
    raise GridError(f"DPGRID header field {name} must be a float64 number, got {x!r}")


def _parse_header(line: bytes) -> dict:
    """Decode the header line and check its field types and lengths;
    GridFunction checks the values."""
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise GridError(f"malformed DPGRID header: {exc}") from exc
    if not isinstance(header, dict):
        raise GridError("DPGRID header must be a JSON object")
    if header.get("magic") != _MAGIC or header.get("version") != _VERSION:
        raise GridError(f"not a DPGRID v{_VERSION} file")
    n, dims, origin = header.get("n"), header.get("dims"), header.get("origin")
    if not _is_int(n):
        raise GridError(f"DPGRID header field n must be an integer, got {n!r}")
    for name, seq in (("dims", dims), ("origin", origin)):
        if not (isinstance(seq, list) and len(seq) == n):
            raise GridError(f"DPGRID header field {name} must be a list of {n} entries, got {seq!r}")
    if not all(_is_int(d) and d >= 2 for d in dims):
        raise GridError(f"DPGRID header field dims must be integers >= 2, got {dims!r}")
    comps = header.get("components")
    if not (_is_int(comps) and comps >= 1):
        raise GridError(f"DPGRID header field components must be a positive integer, got {comps!r}")
    return {
        "n": n,
        "dims": tuple(dims),
        "origin": np.array([_as_float(x, "origin") for x in origin]),
        "spacing": _as_float(header.get("spacing"), "spacing"),
        "components": comps,
    }


def read_dpgrid(path: str | Path) -> GridFunction:
    with open(path, "rb") as fh:
        try:
            fields = _parse_header(fh.readline())
            shape = fields["dims"] + (fields["components"],)
            count = math.prod(shape)
            # compare sizes before reading, so a huge header count allocates nothing
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            if payload != count * 8:
                raise GridError(f"expected {count} float64 values ({count * 8} bytes), found {payload} bytes")
            values = np.frombuffer(fh.read(), dtype="<f8").astype(float).reshape(shape)
            return GridFunction(values=values, **fields)
        except GridError as exc:
            raise GridError(f"{path}: {exc}") from exc


def read_csv(path: str | Path) -> GridFunction:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        n = sum(1 for c in header if c.startswith("x"))
        comps = len(header) - n
        if n < 1 or n > 2 or comps < 1:
            raise GridError(f"{path}: unsupported CSV header {header}")
        if not all(c.startswith("x") for c in header[:n]):
            raise GridError(f"{path}: CSV header {header} must list its x columns first")
        with warnings.catch_warnings():
            # an empty body is reported below as an input error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise GridError(f"{path}: {exc}") from exc
    if data.shape[0] == 0:
        raise GridError(f"{path}: CSV has no data rows")
    if data.shape[1] != len(header):
        raise GridError(f"{path}: CSV rows have {data.shape[1]} columns, its header {len(header)}")
    pts = data[:, :n]
    vals = data[:, n:]
    axes = [np.unique(pts[:, i]) for i in range(n)]
    dims = tuple(len(a) for a in axes)
    if int(np.prod(dims)) != pts.shape[0]:
        raise GridError(f"{path}: CSV rows do not form a full lattice")
    steps = [np.diff(a) for a in axes]
    h = float(steps[0][0]) if steps[0].size else 0.0
    for s in steps:
        if s.size and not np.allclose(s, h, rtol=1e-9):
            raise GridError(f"{path}: non-uniform spacing in CSV lattice")
    origin = np.array([a[0] - h / 2 for a in axes])
    order = np.lexsort(tuple(pts[:, i] for i in reversed(range(n))))
    values = vals[order].reshape(dims + (comps,))
    return GridFunction(n=n, dims=dims, origin=origin, spacing=h, components=comps, values=values)


def load_grid(path: str | Path) -> GridFunction:
    """Read a grid from DPGRID or CSV, dispatching on the file suffix."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return read_csv(p)
    return read_dpgrid(p)
