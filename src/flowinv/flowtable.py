"""NetFlow-style flow construction over a (possibly sampled) packet stream.

The table consumes one time-ordered packet stream.  Hold rule: every sampling
method except ``packet`` holds a key from its first admitted packet until the
next export, admitting each later packet of that key without a new decision;
``packet`` never holds and decides every packet afresh.  An idle gap strictly
greater than the flow timeout terminates the current record and opens a fresh
one on the same key (the hold survives the split).  The whole buffer is
exported, and all tracking state cleared, whenever it reaches capacity or the
export timer fires; the timer restarts from the export instant.  Trace time
drives everything; there is no wall clock.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .sampling import SamplerConfig, _grouped, _holds, _start_mask
from .trace import _SYN, FiveTuple, PacketColumns, PacketRecord, _as_columns, _gc_paused


@dataclass(frozen=True)
class FlowTableConfig:
    """Flow expiry timeout, buffer export timeout, and buffer capacity."""

    flow_timeout: float
    export_timeout: float
    buffer_capacity: int

    def __post_init__(self):
        if not self.flow_timeout > 0:
            raise ValueError("flow_timeout must be positive")
        if not self.export_timeout > 0:
            raise ValueError("export_timeout must be positive")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")


#: Convenience configuration that never splits or exports mid-stream.
UNBOUNDED = FlowTableConfig(math.inf, math.inf, 1 << 62)


@dataclass(slots=True)
class FlowRecord:
    """One exported flow record."""

    flow_id: str
    key: FiveTuple
    packet_count: int
    byte_count: int
    first_seen: float
    last_seen: float
    syn_count: int
    window: int


@dataclass
class FlowSet:
    """Exported flow records plus the export times that delimit windows."""

    records: list
    window_boundaries: list
    packets_seen: int | None = None
    packets_admitted: int = 0


def _timer_fires(ts: np.ndarray, lo: int, window_start: float, export_timeout: float) -> int:
    """The first packet from ``lo`` on with ``t - window_start > export_timeout``,
    or ``len(ts)``: a sorted search, then steps to where that exact test flips."""
    if export_timeout == math.inf:
        return len(ts)
    j = max(lo, int(np.searchsorted(ts, window_start + export_timeout, side="right")))
    while j > lo and ts[j - 1] - window_start > export_timeout:
        j -= 1
    while j < len(ts) and not ts[j] - window_start > export_timeout:
        j += 1
    return j


def _opening_rule(packets: PacketColumns, starts: np.ndarray, holds: bool, flow_timeout: float):
    """The stable sort by key, and per packet ``(a, b, gap)``: in a window
    opened at stream index ``lo`` (an export clears all hold state) the
    packet is admitted iff ``a >= lo``, and opens a record iff also
    ``b < lo`` or ``gap``.

    Under a hold, ``a`` is the key's latest start and ``b`` that of the
    key's previous packet; under ``packet``, ``a`` is the packet itself if
    it starts and ``b`` the key's latest start before it.  ``gap``: more
    than ``flow_timeout`` since the previous admitted packet.
    """
    order, count = _grouped(packets.key_id, starts)
    starting = starts[order]
    start_at = np.append(order[starting], -1)
    latest = np.where(count > 0, start_at[np.cumsum(starting) - 1], -1)
    key = packets.key_id[order]
    head = np.append(True, key[1:] != key[:-1])
    b = np.where(head, -1, np.roll(latest, 1))
    previous = np.where(head, -1, np.roll(order, 1)) if holds else b
    gap = (previous >= 0) & (packets.ts[order] - packets.ts[previous] > flow_timeout)
    rule = np.empty((3, len(order)), dtype=np.int64)
    rule[:, order] = latest if holds else np.where(starting, order, -1), b, gap
    return order, rule


@_gc_paused
def build_flows(
    packets: Iterable[PacketRecord],
    config: FlowTableConfig,
    sampler: SamplerConfig,
) -> FlowSet:
    """Run the flow table over a packet stream under a sampling strategy.

    Raises ValueError on a timestamp that moves backwards, naming the packet
    index.  At end of stream every resident record is exported.

    A window ends at the packet that fires the export timer or whose record
    openings reach the capacity; the windows are found one after another,
    then the records of all of them at once.
    """
    packets = _as_columns(packets)
    ts, n = packets.ts, len(packets)
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if back.size:
        i = int(back[0]) + 1
        raise ValueError(
            f"packet {i}: timestamp {float(ts[i])!r} precedes {float(ts[i - 1])!r};"
            " stream must be time-ordered"
        )
    starts = _start_mask(sampler, packets, np.arange(n))
    order, (a, b, gap) = _opening_rule(packets, starts, _holds(sampler), config.flow_timeout)
    capacity = config.buffer_capacity
    stops, exported = [], []
    lo = span = 0
    while lo < n:
        fires = _timer_fires(ts, lo, float(ts[stops[-1] if stops else 0]), config.export_timeout)
        stop = min(fires, n - 1)
        exported.append(fires < n)
        # a window of ``capacity`` packets or more may fill up: scan a prefix,
        # from the last window's length, doubled until it fills or ends
        hi = min(stop + 1, lo + max(span, capacity))
        while stop + 1 - lo >= capacity:
            opened = np.flatnonzero((a[lo:hi] >= lo) & ((b[lo:hi] < lo) | (gap[lo:hi] > 0)))
            if len(opened) >= capacity:
                stop, exported[-1] = lo + int(opened[capacity - 1]), True
            if len(opened) >= capacity or hi == stop + 1:
                break
            hi = min(stop + 1, lo + 2 * (hi - lo))
        stops.append(stop)
        lo, span = stop + 1, stop + 1 - lo
    ends = np.array(stops, dtype=np.int64)
    window_of = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=-1))
    lo = np.append(0, ends[:-1] + 1)[window_of]
    admitted = a >= lo
    opens = admitted & ((b < lo) | (gap > 0))
    if stops and not exported[-1]:  # exported at end of stream if it holds a record
        exported[-1] = bool(admitted[n - span :].any())
    boundaries = [float(ts[stop]) for stop, out in zip(stops, exported) if out]
    records = _records(packets, order[admitted[order]], opens, window_of)
    return FlowSet(records, boundaries, packets_seen=n, packets_admitted=int(admitted.sum()))


def _records(packets: PacketColumns, at: np.ndarray, opens: np.ndarray, window_of: np.ndarray) -> list:
    """Flow records in opening order, from the admitted packets ``at``
    (grouped by key, time order within a key) and the openings mask."""
    first = np.flatnonzero(opens[at])
    if not len(first):
        return []
    key, window = packets.key_id[at[first]], window_of[at[first]]
    rank = np.arange(len(first))
    new = np.append(True, (key[1:] != key[:-1]) | (window[1:] != window[:-1]))
    syn = (packets.flags[at] & _SYN).astype(np.int64) // _SYN
    columns = (
        key,
        np.diff(np.append(first, len(at))),
        np.add.reduceat(packets.byte_len[at].astype(np.int64), first),
        packets.ts[at[first]],
        packets.ts[at[np.append(first[1:], len(at)) - 1]],
        np.add.reduceat(syn, first),
        rank - np.maximum.accumulate(np.where(new, rank, 0)),  # seq within (key, window)
        window,
    )
    key_ids, *rest = (col[np.argsort(at[first])].tolist() for col in columns)
    return [
        FlowRecord(f"{k.protocol}-{k.src_addr}:{k.src_port}-{k.dst_addr}:{k.dst_port}-{w}.{q}",
                   k, c, nb, f, l, y, w)
        for k, c, nb, f, l, y, q, w in zip(packets.keys.tuples(np.asarray(key_ids)), *rest)
    ]


def flow_length_histogram(flows: FlowSet, merge_windows: bool = True):
    """Count exported records by packet count.

    Records are never coalesced across analysis windows: a flow cut by an
    export shows up once per window.  With ``merge_windows`` the counts pool
    every window into a single histogram (mirroring the post-processing step
    that concatenates per-window export files); otherwise a separate
    histogram is returned per window index.
    """
    if merge_windows:
        return Counter(rec.packet_count for rec in flows.records)
    per_window: dict[int, Counter] = {}
    for rec in flows.records:
        per_window.setdefault(rec.window, Counter())[rec.packet_count] += 1
    return per_window


CSV_HEADER = [
    "flow_id",
    "proto",
    "src",
    "sport",
    "dst",
    "dport",
    "packets",
    "bytes",
    "first_seen",
    "last_seen",
    "syn_count",
]


def write_flow_csv(flows: FlowSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in flows.records:
            k = rec.key
            writer.writerow(
                [
                    rec.flow_id,
                    k.protocol,
                    k.src_addr,
                    k.src_port,
                    k.dst_addr,
                    k.dst_port,
                    rec.packet_count,
                    rec.byte_count,
                    repr(rec.first_seen),
                    repr(rec.last_seen),
                    rec.syn_count,
                ]
            )


@_gc_paused
def read_flow_csv(path) -> FlowSet:
    """Read records back from the export CSV.

    Window boundaries are not stored in the CSV; the window index is
    recovered from the flow id and boundaries are left empty.  A cell that
    does not convert is a ValueError naming the file, line and column.
    """
    records: list[FlowRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected flow CSV header {header}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}: malformed row {row}")
            try:
                key = FiveTuple(int(row[1]), row[2], int(row[3]), row[4], int(row[5]))
                cells = int(row[6]), int(row[7]), float(row[8]), float(row[9]), int(row[10])
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {_bad_cell(row, exc)}") from None
            try:
                window = int(row[0].rsplit("-", 1)[1].split(".")[0])
            except (IndexError, ValueError):
                window = 0
            records.append(FlowRecord(row[0], key, *cells, window))
    admitted = sum(rec.packet_count for rec in records)
    return FlowSet(records, [], packets_seen=None, packets_admitted=admitted)


def _bad_cell(row: list, exc: ValueError) -> str:
    """The first cell of ``row`` that does not convert, or else ``exc``: a
    value out of range."""
    for column, convert, cell in zip(CSV_HEADER, (str, int, str, int, str, int, int, int, float, float, int), row):
        try:
            convert(cell)
        except ValueError as bad:
            return f"column {column!r}: {bad}"
    return str(exc)
