"""The benchmark's tracer patches library names it looks up by string.

``perfbench/tracing.py`` wraps functions such as ``registry.fingerprint_match``
and ``simdevice.phys_to_dram`` where they are looked up at call time. If a
refactor deletes or renames one, a traced benchmark run dies with an
AttributeError; this test makes that failure show up in the unit suite.
The file is only read and executed, never imported from its directory, so
nothing is written next to it.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = load_tracing()
    owners = {owner for owner, _, _ in tracing.SPANS + tracing.COUNTS}
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not before[owner][attr]
                   for owner, attr, _ in tracing.SPANS + tracing.COUNTS)
    finally:
        tracer.uninstall()
    assert {owner: dict(vars(owner)) for owner in owners} == before
