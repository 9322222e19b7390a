"""Static guard: everything defined in src/homlab is used somewhere.

Every function and class defined in a ``src/homlab`` module must be
referenced by an identifier in ``src/homlab`` or ``perfbench/`` outside
its own definition, every annotated class field must be read as an
attribute there, every dataclass field with a default must be set by
some constructor call there and left out by another, every defaulted
function parameter must likewise be passed by some call there and
omitted by another, and no module of ``src/homlab`` or ``tests``, nor
``conftest.py``, may import a name it never uses.  References are
matched by name (``Name`` ids, attribute names and imported names,
including the original name of an ``import x as y``), so the check is
coarse but needs no linter.  A method or property is only reached
through an attribute, so for those only attribute names count: a local
variable of the same name elsewhere does not keep one alive.
Every config key that ``src/homlab`` reads by a literal name must be set
by some shipped config, or be listed with its reason in UNSET_KEYS, and
every family of the registry must be built by some shipped config.
Tests do not count as users: code that only a test reaches belongs in
the test.
"""

import ast
import math
from collections import Counter
from pathlib import Path

from homlab.config import parse_config
from homlab.registry import REGISTRY

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "homlab"
CONFIGS = ROOT / "configs"
TESTS = ROOT / "tests"
USERS = (SRC, ROOT / "perfbench")
ALLOWED = {"main"}
# fields kept without a reader, each with the reason
UNREAD_FIELDS = {
    # the per-form c4 values that ROADMAP item 4's per-row resolvent chain
    # check (kappa <= |L| / (c4(0) c4(eps))) is planned to read
    "CoercivityReport.per_eps",
}
# defaulted parameters passed by no call, each with the reason
UNPASSED_PARAMS = {
    # perfbench/probes.py binds it by name through inspect.signature to
    # count the shifts tried
    "find_lambda.lambda_start",
}
# config keys read but set by no shipped config, each with the reason
UNSET_KEYS = {
    # family builder parameters, listed per family by `homlab families`
    "family.amplitudes", "family.domain", "family.frequencies",
    "family.mean", "family.rho4_power", "family.rho5_power",
    "family.rho8_scale", "family.seed",
    # mesh limits; the shipped studies run at the defaults
    "mesh.min_elements", "mesh.cap_dof",
    # a deployment path; the shipped runs pass --out
    "output.csv",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _identifiers(node):
    """Every identifier a node references, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                yield alias.name.split(".")[-1]


def _attributes(node):
    """Every attribute name a node reads, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _definitions(tree):
    """(definition, is a method or property) for every def and class."""
    methods = {id(stmt) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for stmt in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node, id(node) in methods


def _trees():
    return {path: _parse(path) for base in USERS
            for path in sorted(base.rglob("*.py"))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced():
    trees = _trees()
    everywhere, attributes = Counter(), Counter()
    for tree in trees.values():
        everywhere.update(_identifiers(tree))
        attributes.update(_attributes(tree))
    unreferenced = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for node, is_method in _definitions(tree):
            if node.name in ALLOWED or _is_dunder(node.name):
                continue
            refs = _attributes if is_method else _identifiers
            outside = (attributes if is_method else everywhere)[node.name]
            if outside - Counter(refs(node))[node.name] <= 0:
                unreferenced.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unreferenced == []


def test_every_field_is_read():
    trees = _trees()
    read = set()
    for tree in trees.values():
        read.update(_attributes(tree))
    unread = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    continue
                name = f"{cls.name}.{stmt.target.id}"
                if stmt.target.id not in read and name not in UNREAD_FIELDS:
                    unread.append(
                        f"{path.relative_to(ROOT)}:{stmt.lineno} {name}")
    assert unread == []


def _is_dataclass(cls):
    return any("dataclass" in _identifiers(dec) for dec in cls.decorator_list)


def _calls(trees):
    """{callee name: [(positional count, keyword names)]} of every call.
    A cls(...) call counts as a call of the class whose method makes it,
    and a super().__init__(...) call as a call of that class's first
    base.  A *args counts as every position and a **kwargs, whose keyword
    name is None, as every keyword."""
    calls = {}
    for tree in trees.values():
        # ast.walk reaches an outer class first, so a nested one wins
        owner = {id(call): cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for call in ast.walk(cls)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            cls = owner.get(id(call))
            if name == "cls" and cls:
                name = cls.name
            elif (name == "__init__" and cls and cls.bases
                  and isinstance(func.value, ast.Call)
                  and getattr(func.value.func, "id", None) == "super"):
                base = cls.bases[0]
                name = (getattr(base, "id", None)
                        or getattr(base, "attr", None))
            n_args = len(call.args)
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                n_args = math.inf
            keywords = {kw.arg for kw in call.keywords}
            calls.setdefault(name, []).append((n_args, keywords))
    return calls


def _gives_default(value):
    """Whether a dataclass field's value gives it a default: any value but
    a field(...) call with neither default nor default_factory, which only
    sets options such as compare=False."""
    if not (isinstance(value, ast.Call)
            and list(_identifiers(value.func)) == ["field"]):
        return value is not None
    return any(kw.arg in ("default", "default_factory")
               for kw in value.keywords)


def _defaulted_fields(trees):
    """(location, class name, position, field) of every dataclass field
    with a default in src/homlab."""
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            fields = [stmt for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            for pos, stmt in enumerate(fields):
                if _gives_default(stmt.value):
                    yield (f"{path.relative_to(ROOT)}:{stmt.lineno}",
                           cls.name, pos, stmt.target.id)


def test_every_defaulted_field_is_set():
    # a default that no call overrides is an input nobody sets
    trees = _trees()
    calls = _calls(trees)
    unset = [f"{where} {cls}.{name}"
             for where, cls, pos, name in _defaulted_fields(trees)
             if not any(pos < n_args or name in keywords
                        for n_args, keywords in calls.get(cls, ()))]
    assert unset == []


def _functions(tree):
    """(callee name, function) of every def: its own name, or for an
    __init__ its class's."""
    inits = {id(stmt): node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for stmt in node.body
             if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield inits.get(id(node), node.name), node


def _defaulted_params(trees):
    """(location, callee name, position, parameter, default) of every
    defaulted parameter in src/homlab; a keyword-only one has position
    inf."""
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for callee, fn in _functions(tree):
            args = fn.args
            positional = args.posonlyargs + args.args
            # a call passes no argument for the bound self or cls
            offset = int(bool(positional)
                         and positional[0].arg in ("self", "cls"))
            where = f"{path.relative_to(ROOT)}:{fn.lineno}"
            for arg, default in zip(positional[len(positional)
                                               - len(args.defaults):],
                                    args.defaults):
                yield (where, callee, positional.index(arg) - offset,
                       arg.arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield where, callee, math.inf, arg.arg, default


def _passes(call, pos, name):
    n_args, keywords = call
    return pos < n_args or name in keywords or None in keywords


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a constant with a parameter's
    # name
    trees = _trees()
    calls = _calls(trees)
    unpassed = [f"{where} {callee}.{name}"
                for where, callee, pos, name, _ in _defaulted_params(trees)
                if f"{callee}.{name}" not in UNPASSED_PARAMS
                and not any(_passes(call, pos, name)
                            for call in calls.get(callee, ()))]
    assert unpassed == []
    # every allowlisted parameter is still a defaulted one
    defaulted = {f"{callee}.{name}"
                 for _, callee, _, name, _ in _defaulted_params(trees)}
    assert UNPASSED_PARAMS <= defaulted


def test_every_default_is_taken():
    # a default that every call overrides is a second copy of a value the
    # callers hold, which a call that forgets its argument silently takes.
    # The config getters' _MISSING sentinel is exempt: leaving it out makes
    # a key required.
    trees = _trees()
    calls = _calls(trees)
    untaken = [f"{where} {callee}.{name}"
               for where, callee, pos, name, default
               in _defaulted_params(trees)
               if getattr(default, "id", None) != "_MISSING"
               and all(_passes(call, pos, name)
                       for call in calls.get(callee, ()))]
    untaken += [f"{where} {cls}.{name}"
                for where, cls, pos, name in _defaulted_fields(trees)
                if all(_passes(call, pos, name) for call in calls.get(cls, ()))]
    assert untaken == []


def _bindings(tree):
    """(bound name, line) of every import at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _imported_from(trees):
    """(last part of the module name, name) of every from-import."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                stem = node.module.split(".")[-1]
                for alias in node.names:
                    yield stem, alias.name


def test_no_unused_imports():
    # a name a module imports only for others to import from it, such as
    # resolvent's SOLVE_RTOL that perfbench/checks.py reads, is used
    reexported = set(_imported_from(_trees()))
    unused = []
    for path in [*sorted(SRC.rglob("*.py")), *sorted(TESTS.glob("*.py")),
                 ROOT / "conftest.py"]:
        tree = _parse(path)
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for name, line in _bindings(tree):
            if name not in used and (path.stem, name) not in reexported:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert unused == []


def _keys_read():
    """(key, location) of every cfg.get*("literal", ...) in src/homlab."""
    for path in sorted(SRC.rglob("*.py")):
        for call in ast.walk(_parse(path)):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr.startswith("get")
                    and getattr(call.func.value, "id", None) == "cfg"
                    and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)):
                continue
            yield (call.args[0].value,
                   f"{path.relative_to(ROOT)}:{call.lineno}")


def test_every_key_read_is_set_somewhere():
    # a key no config sets is a knob nobody turns
    set_keys = set()
    for path in CONFIGS.glob("*.cfg"):
        set_keys.update(parse_config(path.read_text(encoding="utf-8"),
                                     str(path)))
    read = list(_keys_read())
    unset = [f"{where} {key}" for key, where in read
             if key not in set_keys and key not in UNSET_KEYS]
    assert unset == []
    # every allowlisted key is still read and still set by no config
    assert UNSET_KEYS <= {key for key, _ in read} - set_keys


def test_every_registry_family_is_built_somewhere():
    # a catalogue entry no config builds is a mechanism nobody runs
    built = set()
    for path in CONFIGS.glob("*.cfg"):
        built.add(parse_config(path.read_text(encoding="utf-8"), str(path))
                  .get("family.name"))
    assert sorted(set(REGISTRY) - built) == []
