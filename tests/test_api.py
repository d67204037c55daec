"""API lint: every optional parameter of a module-level function, of a
method of a module-level class and of a dataclass constructor has a caller
that sets it, and a caller that leaves its default.  A dataclass field
declared ``field(init=False)`` is not a parameter.

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


def _optional_params(fn: ast.FunctionDef, skip: int = 0):
    """(name, positional index or None) of every parameter with a default,
    the first ``skip`` positional ones (a method's self or cls) left out."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[max(first, skip):], start=max(first, skip)):
        yield a.arg, i - skip
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _init_fields(cls: ast.ClassDef):
    """(name, positional index, has a default) of every field a dataclass's
    ``__init__`` takes, in order; ``field(init=False)`` fields are left out."""
    index = 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        spec = value if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field" else None
        keywords = {k.arg: k.value for k in spec.keywords} if spec else {}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        yield node.target.id, index, bool(keywords.keys() & {"default", "default_factory"}) if spec else value is not None
        index += 1


def _callables(tree: ast.Module):
    """(qualified name, called name, FunctionDef, leading positional
    parameters a call does not pass) of every top-level function and every
    method, dunder methods aside, of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    yield f"{node.name}.{fn.name}", fn.name, fn, 0 if static else 1


def _units(tree: ast.Module):
    """(qualified name, nodes) of each top-level statement, with each method
    of a top-level class a unit of its own."""
    for outer in tree.body:
        if not isinstance(outer, ast.ClassDef):
            yield getattr(outer, "name", None), [outer]
            continue
        rest = [s for s in outer.body if not isinstance(s, ast.FunctionDef)]
        yield outer.name, outer.decorator_list + outer.bases + outer.keywords + rest
        for fn in outer.body:
            if isinstance(fn, ast.FunctionDef):
                yield f"{outer.name}.{fn.name}", [fn]


def _calls_by_name() -> dict:
    """Every call, by the called name, with the module and the function or
    method it sits in (so a pass-through of that function's own parameter
    can be told apart)."""
    calls: dict = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for qual, nodes in _units(_parse(path)):
                for node in (n for unit in nodes for n in ast.walk(unit)):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name is not None:
                        calls.setdefault(name, []).append(((path.stem, qual), node))
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
    """``(module, qualified name, param, called name, positional index)`` of
    every optional parameter of a function, a method or a dataclass
    constructor in the package, registry functions aside."""
    params = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        exempt = _registry_functions(tree)
        for qual, name, fn, skip in _callables(tree):
            if qual not in exempt:
                params += [(path.stem, qual, p, name, i) for p, i in _optional_params(fn, skip)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                params += [(path.stem, cls.name, p, cls.name, i) for p, i, opt in _init_fields(cls) if opt]
    return params


def unset_parameters() -> list:
    """``module.function(param)`` of every optional parameter that no call
    sets, found by growing the unset set until forwarding adds no more."""
    calls = _calls_by_name()
    params = [par for par in _package_parameters() if par[:3] not in ALLOWED]
    unset: set = set()
    while True:
        grown = {(mod, qual, p) for mod, qual, p, name, i in params
                 if not any(_sets(where, c, p, i, unset) for where, c in calls.get(name, ()))}
        if grown == unset:
            return [f"{mod}.{qual}({p})" for mod, qual, p, _, _ in params if (mod, qual, p) in unset]
        unset = grown


def _optional_names() -> dict:
    """The optional parameter names of every function and method in
    ``CALLER_DIRS``, keyed like the ``where`` of ``_calls_by_name``."""
    out = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for qual, _name, fn, skip in _callables(_parse(path)):
                out[(path.stem, qual)] = {p for p, _ in _optional_params(fn, skip)}
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
    params = [par for par in _package_parameters() if par[3] in calls]
    dead: set = set()
    while True:
        grown = {(mod, qual, p) for mod, qual, p, name, i in params
                 if all(_overrides(where, c, p, i, optional.get(where, set()), dead) for where, c in calls[name])}
        if grown == dead:
            return [f"{mod}.{qual}({p})" for mod, qual, p, _, _ in params if (mod, qual, p) in dead]
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


def test_scan_reaches_methods_and_constructors():
    """The rules read method parameters and dataclass fields, and skip
    ``field(init=False)`` fields, which no call can pass."""
    scanned = {par[:3] for par in _package_parameters()}
    assert {("meanpoly", "MVPolynomial.derivative_norm_at", "rows"), ("reporting", "Check", "detail"),
            ("reporting", "Check.from_bound", "tolerance")} <= scanned
    assert not {("reporting", "ScanReport", "checks"), ("whitney", "WhitneyCover", "neighbors")} & scanned
