"""flowinv benchmark: run one workload and print its metrics.

Usage, from the root of a flowinv checkout::

    python3 perfbench/run.py --workload cli_text --seed 1 --seconds 24 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  The run starts
fresh single-threaded worker processes one after another; each sets up the
workload and runs its timed section once.  Workers are started until their
timed sections add up to ``--seconds`` (at least three, for the median of
``setup_s``).  ``wall_s`` sums each operation of the timed section at its
fastest over the workers; it and ``setup_s`` are scaled to a nominal host
speed by a reference loop each worker times.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates traced and untraced workers and prints the per-layer ones.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the run
manifest and the exact-repeat fingerprints.  Details, spans included, are
written under ``.perfbench_run/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_WORKERS = 3
MIN_WORKERS_TRACED = 4
RUN_LIMIT_S = 170.0
#: The lower quartile of the reference loop's times in a run on the shared
#: 2-core VM where the baseline was taken, when that host was calm; end-to-end
#: times are given at that host speed.
REFERENCE_NOMINAL_S = 0.012
#: How closely the program's times follow the reference loop's when the host
#: slows: over 20 runs of each workload on that VM, log(time) against
#: log(host slowdown) had slopes of 0.50-0.69 for the timed section and
#: 0.50-0.57 for the set-up.  Times are divided by slowdown ** HOST_ELASTICITY.
HOST_ELASTICITY = 0.6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_revision() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flowinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_worker(args, run_id: str, traced: bool, timeout: float) -> dict | None:
    env = _worker_env()
    workdir = ROOT / ".perfbench_run" / "work" / run_id
    out = workdir.with_suffix(".json")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--scale", args.scale,
           "--workdir", str(workdir), "--out", str(out), "--run-id", run_id]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker {run_id} did not finish within the run limit", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not out.exists():
        print(f"worker {run_id} exited with code {done.returncode}", file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    out.unlink()
    return result


def _run_workers(args, run_id: str, deadline: float) -> list[dict] | None:
    """Start workers until their timed sections add up to ``--seconds``.

    With ``--trace 1`` every other worker is traced, starting with the first.
    A worker is started only while the one that took longest so far would
    still finish before the run limit.
    """
    minimum = MIN_WORKERS_TRACED if args.trace else MIN_WORKERS
    workers: list[dict] = []
    longest = 0.0
    while len(workers) < minimum or sum(w["wall_s"] for w in workers) < args.seconds:
        if workers and time.monotonic() + longest > deadline:
            if len(workers) < minimum:
                print("the run limit was reached before the minimum of workers", file=sys.stderr)
                return None
            break
        began = time.monotonic()
        worker = _run_worker(args, f"{run_id}-w{len(workers)}",
                             args.trace and len(workers) % 2 == 0, deadline - began)
        if worker is None:
            return None
        workers.append(worker)
        if worker["wall_s"] is None:  # its timed section failed; stop here
            break
        longest = max(longest, time.monotonic() - began)
    return workers


def _host_slowdown(workers: list[dict]) -> float:
    """How much slower than the nominal host this run's host ran the reference loop.

    Each worker times a fixed pure-Python loop right before and right after
    its timed section.  The lower quartile of those times over the run,
    divided by ``REFERENCE_NOMINAL_S``, is the factor by which the host was
    slower than nominal in the faster part of the run, the part that
    ``_best_wall`` picks its segments from.
    """
    times = [t for w in workers for t in w["reference_s"]]
    return statistics.quantiles(times, n=4)[0] / REFERENCE_NOMINAL_S


def _best_wall(workers: list[dict]) -> float:
    """The timed section's wall time, each operation at its fastest over the workers.

    Every worker runs the same operations in the same order (``timed_ops`` is
    part of the fingerprints), so segment i is the same work in each.  On a
    shared host the speed of a core swings by up to half from one second to
    the next; the fastest run of each segment is the steadiest estimate of
    what the code costs.
    """
    return sum(min(column) for column in zip(*(w["segments"] for w in workers)))


def _end_to_end(workers: list[dict], peak_rss_kb: int, share_ok: float) -> dict:
    """End-to-end metrics; times are scaled to the nominal host by ``_host_slowdown``."""
    host_scale = _host_slowdown(workers) ** HOST_ELASTICITY
    wall = _best_wall(workers) / host_scale
    return {
        "wall_s": wall,
        "throughput": workers[0]["units"] / wall,
        "peak_rss_mb": peak_rss_kb / 1024,
        "setup_s": statistics.median(w["setup_s"] for w in workers) / host_scale,
        "ok_ops_share": share_ok,
    }


def _per_layer(workers: list[dict]) -> dict:
    traced = [w for w in workers if w["traced"]]
    untraced = [w for w in workers if not w["traced"]]
    names = {name for w in traced for name in w["layers"]}
    values = {}
    for name in names:
        column = [w["layers"].get(name, 0) for w in traced]
        values[name] = max(column) if name == "trace.rss_bytes_per_pkt" else statistics.median(column)
    values["bench.trace_overhead_s"] = (statistics.median(w["wall_s"] for w in traced)
                                        - statistics.median(w["wall_s"] for w in untraced))
    values["bench.host_slowdown"] = _host_slowdown(workers)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "flowinv" / "__init__.py").is_file():
        print(f"{ROOT} is not a flowinv checkout: src/flowinv is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}"
    load_start = _loadavg()
    workers = _run_workers(args, run_id, deadline)
    if workers is None:
        return 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    errors = [e for w in workers for e in w["errors"]]
    exceptions = [w["exception"] for w in workers if w["exception"]]
    if any(w["wall_s"] is None for w in workers):
        print("a worker failed before its timed section completed:", *errors, *exceptions,
              sep="\n", file=sys.stderr)
        return 1
    # The run adds one check of its own: every worker printed the same fingerprints.
    attempted = sum(w["attempted"] for w in workers) + 1
    failed = sum(w["failed"] for w in workers)
    first = workers[0]["fingerprints"]
    if any(w["fingerprints"] != first for w in workers):
        failed += 1
    correct = failed == 0 and not exceptions

    if args.trace:
        values, declared = _per_layer(workers), spec["per_layer"]
    else:
        values = _end_to_end(workers, peak_rss_kb, (attempted - failed) / attempted)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "workers": len(workers),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        **workers[0]["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "inputs": workers[0]["inputs"],
        "unit": workers[0]["unit"],
        "units_per_sample": workers[0]["units"],
        "host_slowdown": _host_slowdown(workers),
        "unscaled_wall_s": _best_wall(workers),
        "median_pass_wall_s": statistics.median(w["wall_s"] for w in workers),
        "samples": {"wall_s": len(workers), "setup_s": len(workers),
                    "traced": sum(w["traced"] for w in workers)},
    }
    out_dir = ROOT / ".perfbench_run" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    details = out_dir / f"{run_id}.json"
    details.write_text(json.dumps({
        "manifest": manifest, "fingerprints": first, "metrics": values,
        "errors": errors, "exceptions": exceptions, "workers": workers}))
    print(json.dumps({"manifest": manifest, "fingerprints": first,
                      "details": str(details.relative_to(ROOT)), "errors": errors}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
