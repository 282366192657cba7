"""Every exported name resolves.

Deleting a function can leave its name behind in an ``__all__`` list;
``from groundlab import *`` then fails although every other test passes.
"""

import importlib
import pkgutil

import groundlab


def test_every_exported_name_resolves():
    modules = [groundlab] + [
        importlib.import_module(f"groundlab.{info.name}")
        for info in pkgutil.iter_modules(groundlab.__path__)
        if info.name != "__main__"]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), module.__name__
        for name in exported:
            assert hasattr(module, name), (module.__name__, name)


def test_star_import_succeeds():
    namespace = {}
    exec("from groundlab import *", namespace)
    assert set(groundlab.__all__) <= set(namespace)
