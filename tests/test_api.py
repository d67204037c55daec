"""API lint: every optional parameter of a module-level function, of a
method of a module-level class and of a dataclass constructor has a caller
that sets it, and a caller that leaves its default.  A dataclass field
declared ``field(init=False)`` is not a parameter.

A default that no call overrides is a constant with a knob on it: each one
doubles the configurations a reader or a test must cover, yet only one value
ever runs.  Only the program keeps a knob alive: the scan reads every call
in ``src/`` and ``benchmarks/`` with ``ast``, never one in ``tests/``, and
counts a parameter as set when some call to a function of that name passes
it by keyword, by position, or through ``*args`` / ``**kwargs``.  A
``cls(...)`` call in a classmethod is a call to its class.  A call that only
forwards a parameter of its own caller that is itself never set does not
count.

The mirror: a default that every call overrides never runs, so the
parameter is required.  A call that forwards an optional parameter of its
own caller may pass that caller's default on, and so keeps the default
live, unless the caller's default never runs either.

Every definition is reached from ``cli.main``, and every value the program
computes is read: each key of a dict a function returns, and each dataclass
field.  A returned dict is a display, or a name bound to one, plainly or
with an annotation (``out: dict = {}``), with the keys stored into it; a
name so bound and displayed as a value of a returned display brings its
keys along, and a dict display stored under a literal key
(``out["x"] = {...}``) brings its nested keys.  Only the program reads a
value, so the value rule counts readers in ``src/`` alone, with no
allow-list.  A key is read by a literal subscript, ``.get`` or a subscript
over a tuple of literal keys on the result, or on a name or a key it is
bound to; it is read with every other key when the result is handed on
whole, less the keys a ``.pop`` discards.  A field is read when an
attribute read anywhere in ``src/`` uses its name.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dptool"
CALLER_DIRS = ("src", "benchmarks")

# Parameters kept with no caller, each for a stated reason.
ALLOWED = {
    # the paper's regime: derivative order m >= 1, kept so that m >= 2
    # stays reachable
    ("harness", "model_residual", "m"): "paper regime: derivative order",
    # the certificate at a derived block other than the default one, which
    # the search for the largest certified improvement (ROADMAP item 2) runs
    ("harness", "self_improve", "derived"): "certificate at a chosen exponent block",
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


def _module_aliases(tree: ast.Module) -> dict:
    """Package module by local name, for each ``from . import module [as alias]``."""
    return {a.asname or a.name: a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None for a in node.names}


def unreached_definitions(package: Path = PACKAGE) -> set:
    """``module.name`` of every top-level function or class and every method
    of one in ``package`` that no chain of names reaches from the roots:
    ``cli.main``, each statement run on import and each dunder method.  In a
    reached definition, a bare name reaches every top-level definition of
    that name; ``alias.name``, with ``alias`` an imported package module,
    reaches that module's ``name`` only; any other ``x.name`` reaches every
    method called ``name``."""
    units, aliases, todo = {}, {}, []
    for path in sorted(package.glob("*.py")):
        tree = _parse(path)
        aliases[path.stem] = _module_aliases(tree)
        for qual, nodes in _units(tree):
            if qual is None or qual.rsplit(".", 1)[-1].startswith("__"):
                todo += [(path.stem, node) for node in nodes]
            else:
                units[f"{path.stem}.{qual}"] = nodes
    by_token: dict = {}
    for key in units:
        module, *qual = key.split(".")
        tokens = [("method", qual[1])] if len(qual) == 2 else [("name", qual[0]), ("attr", module, qual[0])]
        for token in tokens:
            by_token.setdefault(token, []).append(key)
    todo += [("cli", node) for node in units.pop("cli.main")]
    while todo:
        module, top = todo.pop()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                token = ("name", node.id)
            elif isinstance(node, ast.Attribute):
                base = aliases[module].get(getattr(node.value, "id", None))
                token = ("attr", base, node.attr) if base else ("method", node.attr)
            else:
                continue
            for key in by_token.pop(token, ()):
                if key in units:
                    todo += [(key.split(".")[0], n) for n in units.pop(key)]
    return set(units)


def _dict_paths(node: ast.Dict, prefix: tuple = (), bound: dict | None = None) -> set:
    """Key paths of a dict display's literal string keys, with those of the
    dict displays nested in it as values and, for a value that is a name in
    ``bound``, those of the dict bound to that name."""
    paths = set()
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            at = prefix + (key.value,)
            paths.add(at)
            if isinstance(value, ast.Dict):
                paths |= _dict_paths(value, at, bound)
            elif isinstance(value, ast.Name) and bound and value.id in bound:
                paths |= {at + path for path in bound[value.id]}
    return paths


def _returned_paths(fn: ast.FunctionDef) -> set:
    """Key paths of the dicts ``fn`` returns: each returned dict display, and
    each returned name bound to one, plain or annotated, with the keys ``fn``
    stores into it and those of a dict display stored under a key.  A name
    bound so and displayed as a value of a returned display brings its keys."""
    assigns = [(target, node.value) for node in ast.walk(fn)
               if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    bound: dict = {}
    for target, value in assigns:
        if isinstance(target, ast.Name) and isinstance(value, ast.Dict):
            bound.setdefault(target.id, set()).update(_dict_paths(value))
    for target, value in assigns:
        if (isinstance(target, ast.Subscript) and getattr(target.value, "id", None) in bound
                and isinstance(getattr(target.slice, "value", None), str)):
            key = (target.slice.value,)
            bound[target.value.id] |= {key} | (_dict_paths(value, key) if isinstance(value, ast.Dict) else set())
    paths = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            paths |= _dict_paths(node.value, bound=bound)
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            paths |= bound.get(node.value.id, set())
    return paths


def _literal_keys(index: ast.expr, scope: ast.AST):
    """The keys a subscript ``index`` can take: a literal, or a name that a
    loop or comprehension in ``scope`` binds to each item of a tuple or list
    of literals; None for any other index."""
    if isinstance(index, ast.Constant):
        return [index.value]
    if not isinstance(index, ast.Name):
        return None
    for node in ast.walk(scope):
        if (isinstance(node, (ast.For, ast.comprehension)) and getattr(node.target, "id", None) == index.id
                and isinstance(node.iter, (ast.Tuple, ast.List))
                and all(isinstance(e, ast.Constant) for e in node.iter.elts)):
            return [e.value for e in node.iter.elts]
    return None


def _rebinds(node: ast.AST, name: str) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)) else [])
    return any(isinstance(t, ast.Name) and t.id == name for target in targets for t in ast.walk(target))


def _binding(node: ast.AST, parents: dict):
    """(assignment, name) when ``node`` is assigned to a plain name, alone
    (``x = node``) or in a tuple unpacked item by item (``x, y = node, z``);
    else (None, None)."""
    parent = parents.get(node)
    if isinstance(parent, ast.Tuple):
        assign, values = parents.get(parent), parent.elts
    else:
        assign, values = parent, [node]
    if not (isinstance(assign, ast.Assign) and assign.value in (node, parent) and len(assign.targets) == 1):
        return None, None
    target = assign.targets[0]
    names = target.elts if isinstance(target, ast.Tuple) and isinstance(parent, ast.Tuple) else [target]
    name = names[values.index(node)] if len(names) == len(values) else None
    return (assign, name.id) if isinstance(name, ast.Name) else (None, None)


def _reads(node: ast.AST, path: tuple, parents: dict, scope: ast.AST) -> list:
    """How the code around ``node``, an expression whose value is the dict at
    key ``path`` of a returned result, reads it: ``("read", key path, ())``,
    ``("whole", path, discarded key paths)`` where the dict is handed on, and
    ``("pop", key path, ())`` where a ``.pop`` discards a key."""
    parent = parents.get(node)
    if isinstance(parent, ast.Subscript) and parent.value is node:
        if not isinstance(parent.ctx, ast.Load):
            return []
        keys = _literal_keys(parent.slice, scope)
        if keys is None:
            return [("whole", path, ())]
        return [r for k in keys for r in [("read", path + (k,), ())] + _reads(parent, path + (k,), parents, scope)]
    call = parents.get(parent)
    if (isinstance(parent, ast.Attribute) and parent.attr in ("get", "pop") and isinstance(call, ast.Call)
            and call.func is parent and call.args and isinstance(call.args[0], ast.Constant)):
        key = path + (call.args[0].value,)
        if parent.attr == "pop" and isinstance(parents.get(call), ast.Expr):
            return [("pop", key, ())]
        return [("read", key, ())] + _reads(call, key, parents, scope)
    if isinstance(parent, ast.Expr):
        return []
    assign, name = _binding(node, parents)
    if name is not None:
        # the name's loads from this binding up to its next one
        end = min((n.lineno for n in ast.walk(scope)
                   if isinstance(n, ast.stmt) and n.lineno > assign.end_lineno and _rebinds(n, name)), default=math.inf)
        reads = [r for n in ast.walk(scope)
                 if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                 and assign.end_lineno < n.lineno < end for r in _reads(n, path, parents, scope)]
        popped = tuple(at for kind, at, _ in reads if kind == "pop")
        return [(kind, at, popped if kind == "whole" else ()) for kind, at, _ in reads if kind != "pop"]
    return [("whole", path, ())]


def _live(path: tuple, reads: list) -> bool:
    """Whether ``reads`` read the key ``path``: it or a key under it is read,
    or a dict above it is handed on and ``path`` is not discarded."""
    for kind, at, popped in reads:
        if kind == "read" and at[:len(path)] == path:
            return True
        if (kind == "whole" and path[:len(at)] == at and len(path) > len(at)
                and not any(path[:len(p)] == p for p in popped)):
            return True
    return False


def unread_values(package: Path = PACKAGE) -> set:
    """``module.function[key]...`` of every key path that a function of
    ``package`` returns in a dict display and that no caller in ``package``
    reads, and ``module.Class.field`` of every dataclass field whose name no
    attribute read in ``package`` uses.  A caller reads a key by a literal
    subscript, by ``.get``, or by a subscript whose index runs over a tuple
    of literal keys; it reads every key at once when it hands the result
    on, less those a ``.pop`` discards."""
    trees = {path.stem: _parse(path) for path in sorted(package.glob("*.py"))}
    producers: dict = {}
    fields, attributes = [], set()
    for module, tree in trees.items():
        for qual, name, fn, _skip in _callables(tree):
            paths = _returned_paths(fn)
            if paths:
                producers.setdefault(name, []).append((f"{module}.{qual}", paths))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                fields += [(f"{module}.{cls.name}.{node.target.id}", node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        attributes |= {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    reads: dict = {}
    for tree in trees.values():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in producers:
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                reads.setdefault(name, []).extend(_reads(node, (), parents, scope))
    unread = {f"{qual}[{']['.join(path)}]" for name, entries in producers.items()
              for qual, paths in entries for path in paths if not _live(path, reads.get(name, []))}
    return unread | {qual for qual, name in fields if name not in attributes}


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
                    if name == "cls" and qual and "." in qual:
                        name = qual.split(".")[0]
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


def _package_parameters() -> list:
    """``(module, qualified name, param, called name, positional index)`` of
    every optional parameter of a function, a method or a dataclass
    constructor in the package."""
    params = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        for qual, name, fn, skip in _callables(tree):
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
        "optional parameters that no call in src/ or benchmarks/ sets; "
        "make each a constant or add a caller: " + ", ".join(unset))


def test_allowlist_names_live_parameters():
    live = {par[:3] for par in _package_parameters()}
    assert set(ALLOWED) <= live, sorted(set(ALLOWED) - live)


def test_every_default_has_a_caller_that_keeps_it():
    overridden = overridden_defaults()
    assert not overridden, (
        "optional parameters that every call in src/ or benchmarks/ sets; "
        "make each required or add a call that keeps the default: " + ", ".join(overridden))


def test_cli_reaches_every_definition():
    unreached = unreached_definitions()
    assert not unreached, "definitions the CLI never reaches: " + ", ".join(sorted(unreached))


def test_reach_follows_module_aliases(tmp_path):
    """``fh.write`` reaches ``Sink.write``, a method, but not the top-level
    ``write``; ``io_.read`` reaches ``io.read`` and no other module's."""
    (tmp_path / "cli.py").write_text(
        "from . import io as io_\n\n"
        "def main(fh):\n    fh.write('')\n    io_.read()\n")
    (tmp_path / "io.py").write_text(
        "def read():\n    pass\n\n\ndef write():\n    pass\n\n\n"
        "class Sink:\n    def write(self):\n        pass\n")
    (tmp_path / "other.py").write_text("def read():\n    pass\n")
    assert unreached_definitions(tmp_path) == {"io.Sink", "io.write", "other.read"}


def test_every_value_is_read():
    unread = unread_values()
    assert not unread, "values that no caller in src/ reads; return or keep only what is read: " + ", ".join(
        sorted(unread))


def test_value_rule_read_forms(tmp_path):
    """A literal subscript, ``.get``, a subscript over a tuple of literal
    keys, a tuple-unpacked name and handing the result on each read a key;
    a discarding ``.pop`` does not, even before the result is handed on.
    The rule sees the keys of an annotated name, of a name displayed as a
    returned value, and of a dict display stored under a key."""
    (tmp_path / "lib.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Pair:\n    kept: float\n    dropped: float\n\n\n"
        "def report():\n"
        "    return {'sub': 1, 'got': 2, 'looped': 3, 'unread': 4, 'nest': {'inner': 5, 'lost': 6}}\n\n\n"
        "def verify():\n    out = {'pairs': 1}\n    out['records'] = []\n    return out\n\n\n"
        "def tally():\n    out: dict = {}\n    out['hits'] = 1\n    out['misses'] = 2\n    return out\n\n\n"
        "def run():\n"
        "    stages: dict = {'seed': 0}\n"
        "    stages['scan'] = {'kept': 1, 'spare': 2}\n"
        "    return {'stages': stages, 'status': 'ok'}\n")
    (tmp_path / "cli.py").write_text(
        "from . import lib\n\n\n"
        "def main(show):\n"
        "    out = lib.report()\n"
        "    nest, _ = out['nest'], 0\n"
        "    show(out['sub'], out.get('got'), {k: out[k] for k in ('looped',)}, nest['inner'])\n"
        "    res = lib.verify()\n"
        "    res.pop('records')\n"
        "    show(res)\n"
        "    show(lib.tally()['hits'])\n"
        "    run = lib.run()\n"
        "    show(run['status'], run['stages']['scan']['kept'])\n"
        "    return lib.Pair(1.0, 2.0).kept\n")
    assert unread_values(tmp_path) == {
        "lib.report[unread]", "lib.report[nest][lost]", "lib.verify[records]", "lib.Pair.dropped",
        "lib.tally[misses]", "lib.run[stages][seed]", "lib.run[stages][scan][spare]"}


def test_scan_reaches_methods_and_constructors():
    """The rules read method parameters and dataclass fields, and skip
    ``field(init=False)`` fields, which no call can pass."""
    scanned = {par[:3] for par in _package_parameters()}
    assert {("meanpoly", "MVPolynomial.derivative_norm_at", "rows"), ("reporting", "Check", "detail"),
            ("reporting", "Check.from_bound", "tolerance")} <= scanned
    assert not {("reporting", "ScanReport", "checks"), ("whitney", "WhitneyCover", "neighbors")} & scanned
