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

from .sampling import SamplerConfig, _holds, _starts
from .trace import FiveTuple, PacketRecord, _gc_paused


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


def _flow_id(key: FiveTuple, window: int, seq: int) -> str:
    return (
        f"{key.protocol}-{key.src_addr}:{key.src_port}-"
        f"{key.dst_addr}:{key.dst_port}-{window}.{seq}"
    )


@_gc_paused
def build_flows(
    packets: Iterable[PacketRecord],
    config: FlowTableConfig,
    sampler: SamplerConfig,
) -> FlowSet:
    """Run the flow table over a packet stream under a sampling strategy.

    Raises ValueError on a timestamp that moves backwards, naming the packet
    index.  At end of stream every resident record is exported.
    """
    flow_timeout = config.flow_timeout
    export_timeout = config.export_timeout
    capacity = config.buffer_capacity

    live: dict = {}
    seq_on_key: dict = {}
    records: list[FlowRecord] = []
    boundaries: list[float] = []
    holds = _holds(sampler)
    window_start = 0.0
    window_count = 0
    last_ts = 0.0
    seen = 0
    admitted = 0

    def export(at: float) -> None:
        nonlocal window_count, window_start
        boundaries.append(at)
        live.clear()
        seq_on_key.clear()
        window_count = 0
        window_start = at

    for index, pkt in enumerate(packets):
        t = pkt.timestamp
        if seen == 0:
            window_start = t
        elif t < last_ts:
            raise ValueError(
                f"packet {index}: timestamp {t!r} precedes {last_ts!r};"
                " stream must be time-ordered"
            )
        last_ts = t
        seen += 1

        key = pkt.key
        rec = live.get(key)
        if (rec is not None and holds) or _starts(sampler, pkt, index):
            syn = "S" in pkt.tcp_flags
            if rec is None or t - rec.last_seen > flow_timeout:
                # First admitted packet, or an idle gap: open a record.
                seq = 0 if rec is None else seq_on_key[key] + 1
                seq_on_key[key] = seq
                window = len(boundaries)
                rec = FlowRecord(
                    _flow_id(key, window, seq),
                    key,
                    1,
                    pkt.byte_len,
                    t,
                    t,
                    1 if syn else 0,
                    window,
                )
                live[key] = rec
                records.append(rec)
                window_count += 1
            else:
                rec.packet_count += 1
                rec.byte_count += pkt.byte_len
                rec.last_seen = t
                if syn:
                    rec.syn_count += 1
            admitted += 1

        if window_count >= capacity or t - window_start > export_timeout:
            export(t)

    if window_count:
        export(last_ts)
    return FlowSet(records, boundaries, packets_seen=seen, packets_admitted=admitted)


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
    recovered from the flow id and boundaries are left empty.
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
            key = FiveTuple(int(row[1]), row[2], int(row[3]), row[4], int(row[5]))
            try:
                window = int(row[0].rsplit("-", 1)[1].split(".")[0])
            except (IndexError, ValueError):
                window = 0
            records.append(
                FlowRecord(
                    row[0],
                    key,
                    int(row[6]),
                    int(row[7]),
                    float(row[8]),
                    float(row[9]),
                    int(row[10]),
                    window,
                )
            )
    admitted = sum(rec.packet_count for rec in records)
    return FlowSet(records, [], packets_seen=None, packets_admitted=admitted)
