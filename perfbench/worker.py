"""One benchmark worker: a fresh process that sets up one workload and runs it once.

Started by ``run.py``; not meant to be run by hand.  It times its own imports
and input construction (``setup_s``), runs the workload's timed section once
(``wall_s``), traced or not, checks the outputs, and writes one JSON document
to ``--out``.  ``segments`` splits ``wall_s`` at the end of each library call
or CLI subcommand: segment i is operation i plus the benchmark code before it,
and the last segment is the code after the last operation.  Right before and
right after the timed section it times a fixed reference loop
(``reference_s``), so that ``run.py`` can tell how fast the host ran.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


REFERENCE_SAMPLES = 8


def _reference() -> None:
    """Fixed pure-Python work, about 20 ms on a 2-core VM, that times the host."""
    totals = {}
    for i in range(80_000):
        key = (i * 7919) % 1021
        totals[key] = totals.get(key, 0.0) + i * 0.5


def _time_reference() -> list[float]:
    times = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        _reference()
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](args.scale, args.seed, args.workdir, ops)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.group = "setup"
    workload.setup()
    setup_s = time.perf_counter() - _STARTED

    wall = segments = layers = fingerprints = error = None
    reference = _time_reference()
    if tracer is not None:
        tracer.group = "timed"
    try:
        ops.marks.clear()
        start = time.perf_counter()
        out = workload.iteration()
        end = time.perf_counter()
        wall = end - start
        marks = [start, *ops.marks, end]
        segments = [b - a for a, b in zip(marks, marks[1:])]
    except Exception as exc:
        error = traceback.format_exc()
        if not isinstance(exc, workloads.OperationFailed):
            ops.check("the workload's own code runs", lambda: False)
    finally:
        if tracer is not None:
            tracer.group = None
    reference += _time_reference()
    if wall is not None:
        if tracer is not None:
            layers = {**tracer.metrics("setup"), **tracer.metrics("timed", wall)}
        fingerprints = {**workload.check(out), "timed_ops": len(segments) - 1}

    result = {
        "run_id": args.run_id,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall,
        "segments": segments,
        "reference_s": reference,
        "units": workload.units,
        "unit": workload.unit,
        "inputs": workload.inputs(),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "exception": error,
        "fingerprints": fingerprints,
        "layers": layers,
        "spans": tracer.dump() if tracer is not None else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
