"""The names the benchmark's tracer wraps still name library functions.

perfbench/tracing.py wraps each (module, name) in its TRACED list and
treats generator functions as spans over the whole iteration, so a
rename or a change of kind in the library silently breaks a traced run.
Its counter hooks read the arguments and results of the functions they
wrap, so a changed signature or result breaks a traced run too.
perfbench/jobs.py calls library functions with keywords, so a dropped
parameter breaks every run of the benchmark at the parent and the child
alike.  This test only reads perfbench/.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from types import ModuleType

import elusivecodes
from elusivecodes import autgroup, constructions, elusive, search

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    # compiled from source, so no bytecode cache is written under perfbench/
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_name_is_a_library_function():
    traced = _tracing()["TRACED"]
    assert traced
    for _, module, name, _ in traced:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"{module.__name__}.{name}"
        assert fn.__module__ == module.__name__, f"{module.__name__}.{name}"


def test_the_tracer_counter_hooks_read_the_library_calls():
    tracer = _tracing()["Tracer"]()
    tracer.install()
    try:
        search.search_elusive(3, 3, 3)
        list(search.enumerate_codes(3, 3, 2))
        elusive.verify_elusive(constructions.alt_code(3), autgroup.diag_top_generators(3))
    finally:
        tracer.uninstall()
    layers = tracer.per_layer()
    assert layers["kernels.first_mover.hits"] == 1
    assert layers["search.search_elusive.codes_examined"] == 2
    assert layers["search.enumerate_codes.codes"] == 37


def test_enumerate_codes_is_still_a_generator_function():
    assert inspect.isgeneratorfunction(search.enumerate_codes)


def _library_keywords():
    """(module, function, keyword) for each keyword perfbench/jobs.py passes
    to a library function: written at the call, or forwarded through the
    **kwargs of the function that makes the call."""
    tree = ast.parse((PERFBENCH / "jobs.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        own = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        # the keywords callers of fn pass into its **kwargs
        forwarded = {
            kw.arg
            for call in calls
            if isinstance(call.func, ast.Name) and call.func.id == fn.name
            for kw in call.keywords
            if kw.arg is not None and kw.arg not in own
        }
        for call in ast.walk(fn):
            target = getattr(call, "func", None)
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and isinstance(getattr(elusivecodes, target.value.id, None), ModuleType)
            ):
                continue
            keywords = {kw.arg for kw in call.keywords if kw.arg is not None}
            if fn.args.kwarg and any(
                kw.arg is None and isinstance(kw.value, ast.Name) and kw.value.id == fn.args.kwarg.arg
                for kw in call.keywords
            ):
                keywords |= forwarded
            out |= {(target.value.id, target.attr, k) for k in keywords}
    return out


def test_every_keyword_the_jobs_pass_is_a_parameter():
    calls = _library_keywords()
    assert ("search", "search_elusive", "threads") in calls
    for module, name, keyword in sorted(calls):
        fn = getattr(getattr(elusivecodes, module), name)
        assert keyword in inspect.signature(fn).parameters, f"{module}.{name}({keyword}=...)"
