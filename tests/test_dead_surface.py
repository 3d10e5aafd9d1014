"""No library code without a caller.

Every top-level function and class of ``src/yieldgraph`` must be referred
to by code under ``src/`` or ``perfbench/``: a name, an attribute, an
import, or a string the benchmark looks a callable up by. Tests do not
count, so code that only tests call fails here. The names below are
test-only on purpose, each with its reason.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "yieldgraph")

TEST_ONLY = {
    "parse_metrics": "reads metrics.txt back; a report reader for tests and users",
    "lasso_objective": "the optimality oracle the lasso tests check fit_lasso against",
    "TexturePoint": "the soil-texture schema behind the tex_* feature columns",
    "county_texture_fractions": "the soil-texture schema behind the tex_* feature columns",
}


def _sources():
    for top in ("src", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as f:
                        yield path, ast.parse(f.read(), path)


def _referenced(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_library_function_and_class_has_a_caller():
    sources = dict(_sources())
    used = _referenced(sources.values())
    defined = {
        node.name: os.path.relpath(path, ROOT)
        for path, tree in sources.items() if os.path.dirname(path) == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    uncalled = {name: path for name, path in defined.items() if name not in used}
    # a listed name that gains a caller, or is deleted, leaves the list too
    assert set(uncalled) == set(TEST_ONLY), uncalled
