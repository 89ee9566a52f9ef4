"""Scalar reference flow table: the record-copying ``build_flows``.

A verbatim copy of the flow table as it stood before ``flowinv.flowtable``
opened its ``FlowRecord``s directly: a ``_LiveFlow`` per open record, a
per-record ``held`` flag, and a copy into ``FlowRecord`` at export.  Its
per-packet decision is a verbatim copy of ``Decision``, ``decide`` and
``start_probability`` as they stood before ``flowinv.sampling`` stated each
method's start weight once.  Tests compare the package's table and hold-start
rule against them; faster implementations must reproduce their results
exactly.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from typing import Iterable

from flowinv.flowtable import FlowRecord, FlowSet, FlowTableConfig
from flowinv.sampling import _MASK64, SamplerConfig, _uniform
from flowinv.trace import FiveTuple, PacketRecord, _gc_paused


class Decision(enum.Enum):
    SAMPLE_AND_TRACK = "sample-and-track"
    SAMPLE_ONLY = "sample-only"
    SKIP = "skip"


def start_probability(config: SamplerConfig, packet: PacketRecord) -> float:
    """Probability that this packet starts a hold on an untracked flow."""
    method = config.method
    if method == "always":
        return 1.0
    if method in ("packet", "sh_packet"):
        return config.p
    if method == "sh_byte":
        if config.p == 1.0:
            return 1.0  # every byte is sampled; log1p(-1) is undefined
        return -math.expm1(packet.byte_len * math.log1p(-config.p))
    # sh_syn: only a SYN packet can start a hold
    return config.p if "S" in packet.tcp_flags else 0.0


def decide(
    config: SamplerConfig,
    packet: PacketRecord,
    flow_is_tracked: bool,
    packet_index: int,
) -> Decision:
    """Per-packet sampling decision.

    ``flow_is_tracked`` is the flow table's hold status for the packet's
    flow; it is ignored by the ``packet`` method, which never tracks.
    """
    method = config.method
    if method == "always":
        return Decision.SAMPLE_AND_TRACK
    if method == "packet":
        if _uniform(config.seed & _MASK64, packet_index) < config.p:
            return Decision.SAMPLE_ONLY
        return Decision.SKIP
    if flow_is_tracked:
        return Decision.SAMPLE_AND_TRACK
    prob = start_probability(config, packet)
    if prob <= 0.0:
        return Decision.SKIP
    if prob >= 1.0 or _uniform(config.seed & _MASK64, packet_index) < prob:
        return Decision.SAMPLE_AND_TRACK
    return Decision.SKIP


class _LiveFlow:
    __slots__ = (
        "key",
        "packet_count",
        "byte_count",
        "first_seen",
        "last_seen",
        "syn_count",
        "held",
        "seq",
    )

    def __init__(self, key, t, byte_len, syn, held, seq):
        self.key = key
        self.packet_count = 1
        self.byte_count = byte_len
        self.first_seen = t
        self.last_seen = t
        self.syn_count = 1 if syn else 0
        self.held = held
        self.seq = seq


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
    window_records: list[_LiveFlow] = []
    seq_on_key: Counter = Counter()
    records: list[FlowRecord] = []
    boundaries: list[float] = []
    window_start = 0.0
    last_ts = 0.0
    seen = 0
    admitted = 0

    def export(at: float) -> None:
        nonlocal window_records, window_start
        window = len(boundaries)
        for rec in window_records:
            records.append(
                FlowRecord(
                    _flow_id(rec.key, window, rec.seq),
                    rec.key,
                    rec.packet_count,
                    rec.byte_count,
                    rec.first_seen,
                    rec.last_seen,
                    rec.syn_count,
                    window,
                )
            )
        boundaries.append(at)
        live.clear()
        seq_on_key.clear()
        window_records = []
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
        syn = "S" in pkt.tcp_flags
        rec = live.get(key)
        if rec is not None and rec.held:
            if t - rec.last_seen > flow_timeout:
                # Idle gap: terminate the record, keep holding the key.
                seq = seq_on_key[key] + 1
                seq_on_key[key] = seq
                rec = _LiveFlow(key, t, pkt.byte_len, syn, True, seq)
                live[key] = rec
                window_records.append(rec)
            else:
                rec.packet_count += 1
                rec.byte_count += pkt.byte_len
                rec.last_seen = t
                if syn:
                    rec.syn_count += 1
            admitted += 1
        else:
            decision = decide(sampler, pkt, False, index)
            if decision is not Decision.SKIP:
                if rec is not None and t - rec.last_seen > flow_timeout:
                    rec = None
                if rec is None:
                    seq = seq_on_key[key] + 1 if key in seq_on_key else 0
                    seq_on_key[key] = seq
                    rec = _LiveFlow(
                        key,
                        t,
                        pkt.byte_len,
                        syn,
                        decision is Decision.SAMPLE_AND_TRACK,
                        seq,
                    )
                    live[key] = rec
                    window_records.append(rec)
                else:
                    rec.packet_count += 1
                    rec.byte_count += pkt.byte_len
                    rec.last_seen = t
                    if syn:
                        rec.syn_count += 1
                admitted += 1

        if len(window_records) >= capacity or t - window_start > export_timeout:
            export(t)

    if window_records:
        export(last_ts)
    return FlowSet(records, boundaries, packets_seen=seen, packets_admitted=admitted)
