"""Every exported name resolves: stale entries in a module's __all__ break
`from handsim.<module> import *`, and stale imports break `import handsim`."""

import ast
import importlib
import os
import pkgutil

import handsim


def test_every_export_resolves():
    modules = [info.name for info in pkgutil.iter_modules(handsim.__path__)]
    assert "engine" in modules and "cli" in modules
    for name in modules:
        mod = importlib.import_module("handsim." + name)
        assert hasattr(mod, "__all__"), name
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert missing == [], (name, missing)
        exec("from handsim.%s import *" % name, {})
    with open(handsim.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module("handsim." + node.module)
            for alias in node.names:
                assert getattr(handsim, alias.asname or alias.name) is getattr(mod, alias.name)


# public names whose only callers are outside the package for now
_NO_CALLER_YET = {("engine", "tableau")}


def test_every_export_has_a_caller_in_the_package():
    # no public name that only tests call: each name in a module's __all__ is
    # read somewhere in the package outside its own def or class (an import
    # or an __all__ entry is not a read)
    package = os.path.dirname(handsim.__file__)
    reads = set()  # (name, module, top-level definition it sits in)
    exports = {}
    for info in pkgutil.iter_modules(handsim.__path__):
        with open(os.path.join(package, info.name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, info.name, owner))
                elif isinstance(node, ast.Attribute):
                    reads.add((node.attr, info.name, owner))
        exports[info.name] = importlib.import_module("handsim." + info.name).__all__
    unread = sorted((module, name) for module, names in exports.items() for name in names
                    if not any(n == name and (m, o) != (module, name) for n, m, o in reads))
    assert unread == sorted(_NO_CALLER_YET)
