"""Smoke test of the benchmark itself, at a tiny input scale.

Run from the root of a flowinv checkout::

    python3 perfbench/smoke.py

For each workload it runs ``run.py`` once untraced and once traced and
asserts that every declared metric is printed with its unit, that the
outputs pass their checks, that layer spans nest (each child lies inside its
parent and every self time is >= 0), that in each traced worker
``bench.glue_s`` plus the layers' self times add up to its timed section's
wall time, and that in every worker the per-operation segments do too.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr}"
    *_, info_line, result_line = done.stdout.strip().splitlines()
    return json.loads(info_line), json.loads(result_line)


def _check_metrics(result: dict, declared: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (what, result)
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], what
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (what, m["name"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (what, m["name"])


def _check_segments(details: dict, workload: str) -> None:
    for worker in details["workers"]:
        segments = worker["segments"]
        assert len(segments) == worker["fingerprints"]["timed_ops"] + 1 >= 2, workload
        assert min(segments) >= 0 and min(worker["reference_s"]) > 0, workload
        assert math.isclose(sum(segments), worker["wall_s"], rel_tol=1e-9, abs_tol=1e-9), \
            (workload, sum(segments), worker["wall_s"])


def _check_spans(details: dict, workload: str) -> None:
    traced = [w for w in details["workers"] if w["traced"]]
    assert traced, workload
    for worker in traced:
        names = worker["spans"]["names"]
        spans = worker["spans"]["spans"]
        children = defaultdict(float)
        for name, parent, group, start, end in spans:
            assert end >= start, (workload, names[name])
            if parent is not None:
                _, _, p_group, p_start, p_end = spans[parent]
                assert p_group == group and p_start <= start and end <= p_end, (workload, names[name])
                children[parent] += end - start
        self_times = [end - start - children[i] for i, (_, _, _, start, end) in enumerate(spans)]
        assert min(self_times, default=0.0) >= -1e-9, workload
        timed = sum(t for t, span in zip(self_times, spans) if span[2] == "timed")
        glue = worker["layers"]["bench.glue_s"]
        assert glue >= 0, (workload, glue)
        assert math.isclose(glue + timed, worker["wall_s"], rel_tol=1e-9, abs_tol=1e-9), \
            (workload, glue, timed, worker["wall_s"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        _, result = _run(workload, 0)
        _check_metrics(result, spec["end_to_end"], f"{workload} end-to-end")
        info, result = _run(workload, 1)
        _check_metrics(result, spec["per_layer"], f"{workload} per-layer")
        details = json.loads((ROOT / info["details"]).read_text())
        _check_spans(details, workload)
        _check_segments(details, workload)
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
