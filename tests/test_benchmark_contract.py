"""The names the benchmark's tracer wraps still name library functions.

perfbench/tracing.py wraps each (module, name) in its TRACED list and
treats generator functions as spans over the whole iteration, so a
rename or a change of kind in the library silently breaks a traced run.
This test only reads perfbench/.
"""

from __future__ import annotations

import inspect
from pathlib import Path

from elusivecodes import search

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    # compiled from source, so no bytecode cache is written under perfbench/
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["TRACED"]


def test_every_traced_name_is_a_library_function():
    traced = _traced()
    assert traced
    for _, module, name, _ in traced:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"{module.__name__}.{name}"
        assert fn.__module__ == module.__name__, f"{module.__name__}.{name}"


def test_enumerate_codes_is_still_a_generator_function():
    assert inspect.isgeneratorfunction(search.enumerate_codes)
