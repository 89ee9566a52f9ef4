"""Layer spans for the traced benchmark run.

A span is taken around each public call into a flowinv layer by replacing
the module attributes that the CLI and the workloads call, in every flowinv
module that binds them (so ``from .binning import bin_mass`` in
``flowinv.report`` is wrapped too).  Only calls made once per file, stream
or distribution are wrapped; per-packet functions such as ``decide`` are
not, because a wrapper would cost more than the call, so their time stays
inside the caller's self time.  Spans are kept in memory and written out by
the worker when it ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import resource
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

from flowinv import flowtable


class Span:
    __slots__ = ("name", "parent", "group", "start", "end", "info", "keep")

    def __init__(self, name, parent, group):
        self.name = name
        self.parent = parent
        self.group = group
        self.start = self.end = 0.0
        self.info = None
        self.keep = None


def _table_label(config) -> str:
    if config == flowtable.UNBOUNDED:
        return "unbounded"
    if math.isinf(config.export_timeout) and config.buffer_capacity == flowtable.UNBOUNDED.buffer_capacity:
        return f"tt{config.flow_timeout:g}"
    return "bounded"


def _trace_format(path, format="auto") -> str:
    if format != "auto":
        return format
    with open(path, "rb") as fh:
        head = fh.read(4)
    return "pcap" if head in (b"\xd4\xc3\xb2\xa1", b"\xa1\xb2\xc3\xd4") else "text"


class Target(NamedTuple):
    """One wrapped call: ``flowinv.<module>.<attr>``, recorded as span
    ``<module>.<attr>`` unless ``name`` says otherwise.

    ``label(*args)`` gives the variant appended to the name, ``info(result,
    *args)`` counts taken at the call, ``keep(result, *args)`` an object held
    until the run's flow-table counts are taken, and ``rss`` asks for
    the call's ``ru_maxrss`` growth.
    """

    module: str
    attr: str
    name: str | None = None
    label: Callable | None = None
    info: Callable | None = None
    keep: Callable | None = None
    rss: bool = False


TARGETS = [
    Target("trace", "generate_trace",
           info=lambda r, *a, **k: {"pkts": len(r[0])}, rss=True),
    Target("trace", "write_trace"),
    Target("trace", "read_trace", label=_trace_format,
           info=lambda r, *a, **k: {"pkts": len(r), "skipped": r.skipped}, rss=True),
    Target("flowtable", "build_flows",
           label=lambda packets, config, sampler: f"{sampler.method}.{_table_label(config)}",
           keep=lambda r, packets, config, sampler: (r, config)),
    Target("flowtable", "write_flow_csv",
           info=lambda r, flows, path: {"records": len(flows.records)}),
    Target("flowtable", "read_flow_csv",
           info=lambda r, *a, **k: {"records": len(r.records)}),
    Target("flowtable", "flow_length_histogram"),
    Target("sampling", "calibrate_rate",
           label=lambda pilot, method, *a, **k: method, info=lambda r, *a, **k: {"p": r}),
    Target("sampling", "forward_packet_sampling"),
    Target("sampling", "forward_sh_packet"),
    Target("sampling", "sample_packets"),
    Target("sampling", "resample_as_packet_sample"),
    Target("inversion", "invert_sh_packet",
           info=lambda r, *a, **k: {"negative": len(r.negative_indices)}),
    Target("inversion", "invert_sh_packet_pooled"),
    Target("inversion", "invert_sh_byte"),
    Target("inversion", "pool_raw_estimates"),
    Target("inversion", "syn_estimate"),
    Target("binning", "make_bins"),
    Target("binning", "bin_histogram"),
    Target("binning", "bin_mass"),
    Target("binning", "ccdf"),
    Target("report", "compare"),
    Target("report", "emit_plot_data"),
    Target("report", "load_report"),
    Target("cli", "main", name="cli", label=lambda argv=None: argv[0]),
]


class Tracer:
    """Records spans while ``group`` is set; passes calls straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.group = None
        self._stack: list[int] = []

    def install(self) -> None:
        """Replace every binding of each target in the loaded flowinv modules."""
        originals = [getattr(importlib.import_module(f"flowinv.{t.module}"), t.attr)
                     for t in TARGETS]
        modules = [m for name, m in sys.modules.items()
                   if name == "flowinv" or name.startswith("flowinv.")]
        for original, target in zip(originals, TARGETS):
            traced = self._wrap(original, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def _wrap(self, func, target: Target):
        name = target.name or f"{target.module}.{target.attr}"
        label, info, keep, rss = target.label, target.info, target.keep, target.rss
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.group is None:
                return func(*args, **kwargs)
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            span = Span(full, stack[-1] if stack else None, self.group)
            stack.append(len(spans))
            spans.append(span)
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if rss:
                grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
                span.info = {"rss_kb": grown}
            if info is not None:
                span.info = {**(span.info or {}), **info(result, *args, **kwargs)}
            if keep is not None:
                span.keep = keep(result, *args, **kwargs)
            return result

        return traced

    def metrics(self, group, wall: float | None = None) -> dict:
        """Per-layer metrics of one group of spans ("setup" or "timed")."""
        return group_metrics(self.spans, group, wall)

    def dump(self) -> dict:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "parent", "group", "start", "end"],
            "spans": [[index[s.name], s.parent, s.group, s.start, s.end]
                      for s in self.spans],
        }


def table_counts(flows, config) -> dict:
    """Records, windows, export causes and timeout splits of one flow-table run.

    An export is a capacity export when its window holds ``buffer_capacity``
    records, a timer export when the window outlived ``export_timeout``
    (the first window starts at 0, where ``read_trace`` rebases the stream),
    and otherwise the end-of-stream flush.  A record whose flow id carries a
    sequence number above 0 reopened its key inside the window after an idle
    gap longer than ``flow_timeout``: a timeout split.
    """
    per_window: dict[int, int] = defaultdict(int)
    splits = 0
    for rec in flows.records:
        per_window[rec.window] += 1
        if not rec.flow_id.endswith(".0"):
            splits += 1
    capacity = timer = 0
    start = 0.0
    for window, boundary in enumerate(flows.window_boundaries):
        if per_window[window] >= config.buffer_capacity:
            capacity += 1
        elif boundary - start > config.export_timeout:
            timer += 1
        start = boundary
    seen = flows.packets_seen or 0
    return {
        "records": len(flows.records),
        "windows": len(flows.window_boundaries),
        "admitted": flows.packets_admitted,
        "seen": seen,
        "capacity_exports": capacity,
        "timer_exports": timer,
        "timeout_splits": splits,
        "kept_share": flows.packets_admitted / seen if seen else 0.0,
    }


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def group_metrics(spans: list[Span], group, wall: float | None) -> dict:
    """Per-layer metrics of the spans of one group.

    ``self_s`` of a name is the summed duration of its spans minus the time
    their direct children cover.  With ``wall`` given, ``bench.glue_s`` is
    the part of it that no top-level span covers.
    """
    self_s: dict[str, float] = defaultdict(float)
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    top = 0.0
    rss_per_pkt = 0.0
    negative = 0
    out: dict[str, float] = {}
    members = [s for s in spans if s.group == group]
    for span in members:
        dur = span.end - span.start
        self_s[span.name] += dur
        if span.parent is None:
            top += dur
        else:
            self_s[spans[span.parent].name] -= dur
        if span.info:
            for key, value in span.info.items():
                totals[span.name][key] += value
            if "rss_kb" in span.info and span.info.get("pkts"):
                rss_per_pkt = max(rss_per_pkt, span.info["rss_kb"] * 1024 / span.info["pkts"])
            negative += span.info.get("negative", 0)
            if "p" in span.info:
                out[f"{span.name}.p"] = span.info["p"]
        if span.keep is not None:
            counts = table_counts(*span.keep)
            for key in ("records", "windows", "capacity_exports", "timeout_splits", "kept_share"):
                out[f"{span.name}.{key}"] = counts[key]
            totals[span.name]["pkts"] += counts["seen"]
    for name, seconds in self_s.items():
        out[f"{name}.self_s"] = seconds
        sums = totals.get(name, {})
        if name.startswith(("trace.read_trace.", "flowtable.build_flows.")):
            out[f"{name}.pkts_per_s"] = _rate(sums.get("pkts", 0), seconds)
        if name.startswith("trace.read_trace.pcap"):
            out[f"{name}.skipped"] = sums.get("skipped", 0)
        if name in ("flowtable.write_flow_csv", "flowtable.read_flow_csv"):
            out[f"{name}.records_per_s"] = _rate(sums.get("records", 0), seconds)
    if rss_per_pkt:
        out["trace.rss_bytes_per_pkt"] = rss_per_pkt
    if "inversion.invert_sh_packet" in self_s:
        out["inversion.negative_estimates"] = negative
    if wall is not None:
        out["bench.glue_s"] = wall - top
    return out
