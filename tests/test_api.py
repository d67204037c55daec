"""API lint: every optional parameter of a module-level function has a caller.

A default that no call overrides is a constant with a knob on it: each one
doubles the configurations a reader or a test must cover, yet only one value
ever runs.  The scan reads every call in ``src/``, ``benchmarks/`` and
``tests/`` with ``ast`` and counts a parameter as set when some call to a
function of that name passes it by keyword, by position, or through
``*args`` / ``**kwargs``.  A call that only forwards a parameter of its own
caller that is itself never set does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dptool"
CALLER_DIRS = ("src", "benchmarks", "tests")

# Parameters kept with no caller, each for a stated reason.
ALLOWED = {
    # the paper's regime: derivative order m >= 1 and the structure
    # constants of the model system, kept so that m >= 2 stays reachable
    ("harness", "model_residual", "m"): "paper regime: derivative order",
    ("harness", "structure_checks", "nu"): "paper regime: coercivity constant",
    ("harness", "structure_checks", "m"): "paper regime: derivative order",
    ("harness", "structure_checks", "n"): "paper regime: dimension",
    ("harness", "structure_checks", "components"): "paper regime: system size N",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _optional_params(fn: ast.FunctionDef):
    """(name, positional index or None) of every parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], start=first):
        yield a.arg, i
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _calls_by_name() -> dict:
    """Every call, by the called name, with the module and top-level function
    it sits in (so a pass-through of that function's own parameter can be told
    apart)."""
    calls: dict = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for outer in _parse(path).body:
                where = (path.stem, getattr(outer, "name", None))
                for node in ast.walk(outer):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name is not None:
                        calls.setdefault(name, []).append((where, node))
    return calls


def _sets(where, call: ast.Call, param: str, index, unset: set) -> bool:
    """Whether ``call`` passes ``param``.  Forwarding a parameter of the
    calling function that is itself never set does not count."""
    def real(value):
        return not (isinstance(value, ast.Name) and (*where, value.id) in unset)

    for kw in call.keywords:
        if kw.arg is None or (kw.arg == param and real(kw.value)):
            return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index and real(call.args[index])


def _registry_functions(tree: ast.Module) -> set:
    """Functions listed in ``_SUITES``, which the registry calls by value."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_SUITES" for t in node.targets):
            return {v.id for v in node.value.values if isinstance(v, ast.Name)}
    return set()


def unset_parameters() -> list:
    """``module.function(param)`` of every optional parameter that no call
    sets, found by growing the unset set until forwarding adds no more."""
    calls = _calls_by_name()
    params = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        exempt = _registry_functions(tree)
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name not in exempt:
                params += [(path.stem, fn.name, p, i) for p, i in _optional_params(fn)
                           if (path.stem, fn.name, p) not in ALLOWED]
    unset: set = set()
    while True:
        grown = {(mod, fn, p) for mod, fn, p, i in params
                 if not any(_sets(where, c, p, i, unset) for where, c in calls.get(fn, ()))}
        if grown == unset:
            return [f"{mod}.{fn}({p})" for mod, fn, p, _ in params if (mod, fn, p) in unset]
        unset = grown


def test_every_optional_parameter_has_a_caller():
    unset = unset_parameters()
    assert not unset, (
        "optional parameters that no call in src/, benchmarks/ or tests/ sets; "
        "make each a constant or add a caller: " + ", ".join(unset))


def test_allowlist_names_live_parameters():
    live = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in _parse(path).body:
            if isinstance(fn, ast.FunctionDef):
                live.update((path.stem, fn.name, p) for p, _ in _optional_params(fn))
    assert set(ALLOWED) <= live, sorted(set(ALLOWED) - live)
