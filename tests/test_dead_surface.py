"""No library code without a caller.

Code under ``src/`` or ``perfbench/`` must use every public part of
``src/yieldgraph``; tests do not count, so code that only tests use fails
here. Five checks:

- every top-level function and class is read: loaded as a name or an
  attribute, imported, or named by a string the benchmark looks a
  callable up by;
- every name a module assigns at top level (``__all__`` aside) is read
  in that sense;
- every public method, property and dataclass field of a class is
  referred to as an attribute, a keyword or a string. An attribute chain
  rooted at a module name (``np.tanh``) does not count;
- every defaulted parameter of a public function or method (and of
  ``__init__``) is passed, by keyword or by position, by some call that
  uses the function's name (for ``__init__``, the class name). A call
  with ``*args`` or ``**kwargs`` passes every parameter it could;
- every parameter of a library function or method, nested ones included,
  is loaded as a name in its body. A method's receiver counts too, unless
  the method calls zero-argument ``super()``, which reads it unnamed. A
  method whose body only raises is not checked, nor is a lambda.

The checks match by name, so a dead member that shares its name with a
live one passes. Known limit: a member whose name matches a numpy array
method (``max``, ``sum``, ``mean``) cannot be proven dead by name, because
any ``array.max()`` refers to it; such members are audited by hand.
Methods reached through operator syntax (``__call__``) are not checked for
parameters, and neither are the parameters of a test-only function.

The names below are test-only on purpose, each with its reason.
"""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "yieldgraph")

TEST_ONLY = {
    "parse_metrics": "reads metrics.txt back; a report reader for tests and users",
    "lasso_objective": "the optimality oracle the lasso tests check fit_lasso against",
}

TEST_ONLY_PARAMETERS = {
    "main(argv)": "the console entry point reads sys.argv; tests pass argv",
    "build_masking_plan(cutoff_week)": "a test seam for the cutoff's edge cases",
    "fit_lasso(tol)": "a test seam for the convergence edge cases",
}

UNREAD_PARAMETERS = {
    "LinearWrapper.__init__(rng)": "every kind is built through one constructor signature",
    "_Model.forward_samples(training)": "every kind runs through one forward signature",
    "_Model.forward_samples(rng)": "every kind runs through one forward signature",
}


def _sources():
    for top in ("src", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as f:
                        yield path, ast.parse(f.read(), path)


def _library(sources):
    return {path: tree for path, tree in sources.items() if os.path.dirname(path) == PACKAGE}


def _read(trees):
    """Names loaded (not bound) as names, attributes, imports and strings."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _assigned(tree):
    """Names a module binds at top level by assignment."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def _is_module(package, name):
    try:
        return importlib.util.find_spec(f"{package}.{name}") is not None
    except (ImportError, ValueError):
        return False


def _module_names(tree):
    """Names a file binds to modules: ``import x [as y]`` and
    ``from package import module``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.update(a.asname or a.name for a in node.names
                         if _is_module(node.module, a.name))
    return names


def _member_references(trees):
    """Attribute names not rooted at a module, keyword names, and strings."""
    names = set()
    for tree in trees:
        modules = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in modules):
                    names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _members(cls):
    """Public methods, properties and (for a dataclass) fields of a class."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and _is_dataclass(cls):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def _functions(trees):
    """(call name, function, is a method) for every public function and
    method, and for each ``__init__`` under its class's name."""
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if fn.name == "__init__":
                        yield node.name, fn, True
                    elif not fn.name.startswith("_"):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list)
                        yield fn.name, fn, not static


def _defaulted(fn, is_method):
    """(name, position or None) of each parameter with a default; the
    position counts from the first argument a caller passes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return starred or len(call.args) > position


def _calls(trees):
    """{called name: [ast.Call]} over plain and attribute calls."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def test_every_library_function_and_class_has_a_caller():
    sources = dict(_sources())
    used = _read(sources.values())
    defined = {
        node.name: os.path.relpath(path, ROOT)
        for path, tree in _library(sources).items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    uncalled = {name: path for name, path in defined.items() if name not in used}
    # a listed name that gains a caller, or is deleted, leaves the list too
    assert set(uncalled) == set(TEST_ONLY), uncalled


def test_every_public_member_is_used():
    sources = dict(_sources())
    used = _member_references(sources.values())
    unused = sorted(
        f"{cls.name}.{name}"
        for tree in _library(sources).values()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for name in _members(cls)
        if name not in used
    )
    assert unused == [], unused


def test_every_defaulted_parameter_is_passed():
    sources = dict(_sources())
    calls = _calls(sources.values())
    unpassed = {
        f"{call_name}({name})"
        for call_name, fn, is_method in _functions(_library(sources).values())
        if call_name not in TEST_ONLY
        for name, position in _defaulted(fn, is_method)
        if not any(_passes(call, name, position) for call in calls.get(call_name, ()))
    }
    # a listed parameter that gains a caller, or is deleted, leaves the list too
    assert unpassed == set(TEST_ONLY_PARAMETERS), sorted(unpassed)


def test_every_module_constant_is_read():
    sources = dict(_sources())
    read = _read(sources.values())
    unread = sorted(
        f"{os.path.relpath(path, ROOT)}: {name}"
        for path, tree in _library(sources).items()
        for name in _assigned(tree)
        if name != "__all__" and name not in read
    )
    assert unread == [], unread


def _definitions(node, prefix=""):
    """(qualified name, function, is a method) for every function under
    ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child, isinstance(node, ast.ClassDef)
            yield from _definitions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _only_raises(fn):
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _calls_bare_super(fn):
    return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "super"
               and not node.args for statement in fn.body for node in ast.walk(statement))


def test_every_parameter_is_read():
    unread = set()
    for tree in _library(dict(_sources())).values():
        for name, fn, is_method in _definitions(tree):
            if is_method and _only_raises(fn):
                continue
            args = fn.args
            receiver = 1 if is_method and _calls_bare_super(fn) else 0
            params = (args.posonlyargs + args.args)[receiver:] + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            loaded = {node.id for statement in fn.body for node in ast.walk(statement)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread.update(f"{name}({a.arg})" for a in params if a.arg not in loaded)
    # a listed parameter that gets read, or is deleted, leaves the list too
    assert unread == set(UNREAD_PARAMETERS), sorted(unread)
