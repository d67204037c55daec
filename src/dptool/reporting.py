"""Machine-readable check reports with deterministic serialization.

Every suite emits one JSON document {suite, config_echo, checks, constants,
timing_ms, status}.  Floating-point values are serialized with 17
significant digits so that round-tripping is exact and two runs of the same
configuration produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Check", "ScanReport", "to_json"]


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail" | "skip"
    measured: float | None = None
    bound: float | None = None
    tolerance: float | None = None
    detail: str = ""

    @classmethod
    def from_bound(cls, name, measured, bound, tolerance=0.0):
        ok = measured <= bound * (1.0 + tolerance) if math.isfinite(bound) else math.isfinite(measured)
        return cls(name, "pass" if ok else "fail", measured, bound, tolerance)

    def as_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.measured is not None:
            d["measured"] = self.measured
        if self.bound is not None:
            d["bound"] = self.bound
        if self.tolerance is not None:
            d["tolerance"] = self.tolerance
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class ScanReport:
    suite: str
    config_echo: dict
    checks: list = field(init=False, default_factory=list)
    constants: dict = field(init=False, default_factory=dict)

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    @property
    def status(self) -> str:
        return "pass" if all(c.status != "fail" for c in self.checks) else "fail"

    def failed(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config_echo": self.config_echo,
            "checks": [c.as_dict() for c in self.checks],
            "constants": self.constants,
            "timing_ms": 0,  # fixed at 0: reports must be byte-identical run to run
            "status": self.status,
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(to_json(self.as_dict()) + "\n", encoding="utf-8")


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits, insertion order kept."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if scalars:
            return "[" + ", ".join(to_json(v) for v in seq) + "]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    # numpy scalars and similar
    if hasattr(obj, "item"):
        return to_json(obj.item(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")
