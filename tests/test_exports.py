"""Every exported name resolves: stale entries in a module's __all__ break
`from handsim.<module> import *`, and stale imports break `import handsim`."""

import ast
import importlib
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
