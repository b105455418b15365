"""Every job of the benchmark's workloads still writes its golden output.

perfbench/jobs.py defines each job's inputs, its call into the library and
the text compared with ``perfbench/goldens/<job>.txt``.  Running them here
at seed 0 makes a change that must leave every output byte-identical
checkable without a benchmark run.  This test only reads perfbench/.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import ModuleType

import pytest

JOBS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
WORKLOADS = ("certify", "deep-walk", "verify")
SEED = 0


def _jobs() -> ModuleType:
    # compiled from source, so no bytecode cache is written under perfbench/;
    # registered first, because its dataclass looks its module up
    module = sys.modules.setdefault("perfbench_jobs", ModuleType("perfbench_jobs"))
    module.__file__ = str(JOBS_PY)
    exec(compile(JOBS_PY.read_text(encoding="utf-8"), str(JOBS_PY), "exec"), module.__dict__)
    return module


jobs = _jobs()


@pytest.mark.parametrize(
    "name", sorted({name for workload in WORKLOADS for name in jobs.WORKLOADS[workload]})
)
def test_job_output_matches_golden(name):
    job = jobs.JOBS[name]
    inputs = jobs.build_inputs([name], SEED)
    (golden,) = jobs.load_goldens([name]).values()
    assert job.output(job.run(inputs[name])) == golden
