"""The package's public names and each module's ``__all__`` agree.

Every name a module lists in ``__all__`` must exist, and every public
name the ``regloss`` package exports must be listed by some module, so a
deletion that leaves a stale export or an unlisted name fails here.
"""

import importlib
import inspect
import pkgutil

import regloss

MODULES = {
    info.name: importlib.import_module(f"regloss.{info.name}")
    for info in pkgutil.iter_modules(regloss.__path__)
}


def test_every_name_in_each_all_resolves():
    for name, module in MODULES.items():
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"regloss.{name}.__all__ lists missing {public!r}"


def test_every_public_package_name_is_in_some_all():
    listed = {public for module in MODULES.values() for public in getattr(module, "__all__", ())}
    exported = {
        name
        for name, value in vars(regloss).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported and exported <= listed, sorted(exported - listed)
