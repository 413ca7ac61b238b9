"""The package's public names, each module's ``__all__`` and the README agree.

Every name a module lists in ``__all__`` must exist, and every public
name the ``regloss`` package exports must be listed by some module, so a
deletion that leaves a stale export or an unlisted name fails here.  The
README's library tour runs as written, so a changed signature cannot
leave it stale.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_tour_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert tour, "README.md has no python block under '## Library tour'"
    exec(compile(tour.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[-1].startswith("divergent - ")
