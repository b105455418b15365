"""One pass of one workload, in a fresh process; started by run.py.

    python3 perfbench/worker.py --workload certify --seed 1 --mode pass --started-at T

Modes: ``setup`` builds the inputs and loads the goldens, then stops;
``pass`` also runs every job once; ``trace`` runs the pass with every
traced library function wrapped and writes the spans to ``--spans``.
The last line of standard output is one JSON record.  ``--started-at``
is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so the record's ``setup_s`` includes interpreter
start and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path.cwd() / "src"


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--started-at", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import elusivecodes
    from elusivecodes import _kernels

    if not Path(elusivecodes.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"elusivecodes imported from {elusivecodes.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import jobs

    if args.workload not in jobs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(jobs.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    names = jobs.job_order(args.workload, args.seed)
    inputs = jobs.build_inputs(names, args.seed)
    goldens = jobs.load_goldens(names)
    ready = _clock()
    record = {
        "setup_s": ready - args.started_at,
        "backend": _kernels.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    results = []
    for name in names:
        job = jobs.JOBS[name]
        if tracer is not None:
            tracer.job = name
        error = result = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            result = job.run(inputs[name])
        except Exception:  # a job that raises is a failed job, not a failed pass
            error = traceback.format_exc()
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if error is None:
            try:
                text = job.output(result)
            except Exception:  # jobs.JobFailed, or a result of the wrong shape
                error = traceback.format_exc()
            else:
                if text != goldens[name]:
                    error = f"output differs from golden:\n{text}--- golden:\n{goldens[name]}"
        # drop the result before the next job, so peak RSS is one job's
        result = None
        if error is not None:
            print(f"job {name} failed: {error}", file=sys.stderr)
        # cpu_s well below s means the pass waited for the processor
        results.append({"name": name, "s": elapsed, "cpu_s": cpu, "ok": error is None})
    record["jobs"] = results
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        record["per_layer"] = tracer.per_layer()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
