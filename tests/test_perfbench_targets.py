"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/tracing.py`` patches regloss functions by module and attribute
name.  Renaming or deleting one of them breaks the traced benchmark run;
this check catches that in the unit suite.  The tracer module is compiled
from its source text, so nothing is written next to it.
"""

import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    found = {target[0] for target, _, _, _ in tracing.bindings()}
    assert found == {target[0] for target in tracing.TARGETS}
