"""API lint: every optional parameter of a module-level function has a
caller that sets it, and a caller that leaves its default.

A default that no call overrides is a constant with a knob on it: each one
doubles the configurations a reader or a test must cover, yet only one value
ever runs.  The scan reads every call in ``src/``, ``benchmarks/`` and
``tests/`` with ``ast`` and counts a parameter as set when some call to a
function of that name passes it by keyword, by position, or through
``*args`` / ``**kwargs``.  A call that only forwards a parameter of its own
caller that is itself never set does not count.

The mirror: a default that every call overrides never runs, so the
parameter is required.  A call that forwards an optional parameter of its
own caller may pass that caller's default on, and so keeps the default
live, unless the caller's default never runs either.
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


def _package_parameters() -> list:
    """``(module, function, param, positional index)`` of every optional
    parameter of a module-level function in the package, registry functions
    aside."""
    params = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        exempt = _registry_functions(tree)
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name not in exempt:
                params += [(path.stem, fn.name, p, i) for p, i in _optional_params(fn)]
    return params


def unset_parameters() -> list:
    """``module.function(param)`` of every optional parameter that no call
    sets, found by growing the unset set until forwarding adds no more."""
    calls = _calls_by_name()
    params = [par for par in _package_parameters() if par[:3] not in ALLOWED]
    unset: set = set()
    while True:
        grown = {(mod, fn, p) for mod, fn, p, i in params
                 if not any(_sets(where, c, p, i, unset) for where, c in calls.get(fn, ()))}
        if grown == unset:
            return [f"{mod}.{fn}({p})" for mod, fn, p, _ in params if (mod, fn, p) in unset]
        unset = grown


def _optional_names() -> dict:
    """The optional parameter names of every top-level function in
    ``CALLER_DIRS``, keyed like the ``where`` of ``_calls_by_name``."""
    out = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for fn in _parse(path).body:
                if isinstance(fn, ast.FunctionDef):
                    out[(path.stem, fn.name)] = {p for p, _ in _optional_params(fn)}
    return out


def _overrides(where, call: ast.Call, param: str, index, optional: set, dead: set) -> bool:
    """Whether ``call`` surely passes a value of its own for ``param``, by
    keyword or by position.  Forwarding an ``optional`` parameter of the
    calling function passes that function's default on, unless the default
    is itself ``dead``."""
    def own(value):
        return not (isinstance(value, ast.Name) and value.id in optional and (*where, value.id) not in dead)

    for kw in call.keywords:
        if kw.arg == param:
            return own(kw.value)
    if index is None or len(call.args) <= index or any(isinstance(a, ast.Starred) for a in call.args[:index + 1]):
        return False
    return own(call.args[index])


def overridden_defaults() -> list:
    """``module.function(param)`` of every optional parameter whose default
    no call leaves in place, found by growing the dead set until forwarding
    adds no more."""
    calls = _calls_by_name()
    optional = _optional_names()
    params = [par for par in _package_parameters() if par[1] in calls]
    dead: set = set()
    while True:
        grown = {(mod, fn, p) for mod, fn, p, i in params
                 if all(_overrides(where, c, p, i, optional.get(where, set()), dead) for where, c in calls[fn])}
        if grown == dead:
            return [f"{mod}.{fn}({p})" for mod, fn, p, _ in params if (mod, fn, p) in dead]
        dead = grown


def test_every_optional_parameter_has_a_caller():
    unset = unset_parameters()
    assert not unset, (
        "optional parameters that no call in src/, benchmarks/ or tests/ sets; "
        "make each a constant or add a caller: " + ", ".join(unset))


def test_allowlist_names_live_parameters():
    live = {par[:3] for par in _package_parameters()}
    assert set(ALLOWED) <= live, sorted(set(ALLOWED) - live)


def test_every_default_has_a_caller_that_keeps_it():
    overridden = overridden_defaults()
    assert not overridden, (
        "optional parameters that every call in src/, benchmarks/ or tests/ sets; "
        "make each required or add a call that keeps the default: " + ", ".join(overridden))
