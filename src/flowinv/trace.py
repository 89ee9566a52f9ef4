"""Packet traces: domain types, text and pcap readers, synthetic generation.

The text trace format is one packet per line::

    timestamp proto src sport dst dport bytes flags

with the timestamp printed to six decimal places, dotted-quad addresses and
``flags`` a subset of ``SFR`` (``-`` when empty).  The pcap reader handles
classic pcap files (microsecond or nanosecond magic, either byte order)
carrying Ethernet + IPv4 + TCP/UDP/ICMP; anything else is counted and
skipped.
"""

from __future__ import annotations

import functools
import gc
import os
import struct
from dataclasses import dataclass
from socket import inet_ntoa
from typing import Iterable, Iterator

import numpy as np

from .distributions import FlowLengthDistribution

TCP = 6
UDP = 17
ICMP = 1

_FLAG_ORDER = "SFR"
_FLAG_SET = frozenset(_FLAG_ORDER)
_NO_FLAGS = frozenset()
_SYN_ONLY = frozenset("S")

# pcap magic number -> unit of the timestamp fraction field
_PCAP_FRACTION_UNITS = {0xA1B2C3D4: 1e-6, 0xA1B23C4D: 1e-9}
_ETHERTYPE_IPV4 = 0x0800
# Ethernet II header, then the fixed 20 bytes of IPv4: ethertype, version and
# IHL, total length, flags and fragment offset, protocol, source, destination
_ETHERNET_IPV4 = struct.Struct("!12xHBxHxxHxBxx4s4s")
_PORTS = struct.Struct("!HH")
# transport bytes the decoder reads: TCP up to its flags, UDP ports, none of ICMP
_TRANSPORT_BYTES = {TCP: 14, UDP: 4, ICMP: 0}
# flag set of each combination of the FIN (0x01), SYN (0x02) and RST (0x04) bits
_TCP_FLAGS = (_NO_FLAGS,) + tuple(
    frozenset(c for bit, c in enumerate("FSR") if i >> bit & 1) for i in range(1, 8)
)
_FOREVER = float("inf")


class TraceFormatError(ValueError):
    """A trace file cannot be parsed under its declared format."""


def _gc_paused(func):
    """Run ``func`` with the cyclic garbage collector paused.

    The bulk readers and builders allocate one object per packet or record
    and create no reference cycles, so every collection the allocations
    trigger rescans the growing list and frees nothing.  The collector is
    switched back on when the call returns or raises, and only if it was on
    when the call began, so nested calls and callers that paused it
    themselves are left as they were.  While the call runs, cyclic garbage
    made by other threads waits for the next collection.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@dataclass(frozen=True, slots=True)
class FiveTuple:
    """Flow key: protocol plus source/destination address and port."""

    protocol: int
    src_addr: str
    src_port: int
    dst_addr: str
    dst_port: int

    def __post_init__(self):
        if not 0 <= self.protocol <= 255:
            raise ValueError(f"bad protocol number {self.protocol}")
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"bad port {port}")


@dataclass(slots=True)
class PacketRecord:
    """One packet: capture time, flow key, IP byte length, TCP flags seen."""

    timestamp: float
    key: FiveTuple
    byte_len: int
    tcp_flags: frozenset = _NO_FLAGS

    def __post_init__(self):
        if not 0.0 <= self.timestamp < _FOREVER:
            raise ValueError(f"bad timestamp {self.timestamp}")
        if not 1 <= self.byte_len <= 65535:
            raise ValueError(f"byte_len {self.byte_len} outside [1, 65535]")
        if self.tcp_flags:
            if not self.tcp_flags <= _FLAG_SET:
                raise ValueError(f"unknown TCP flags {set(self.tcp_flags)}")
            if self.key.protocol != TCP:
                raise ValueError("TCP flags on a non-TCP packet")


@dataclass
class Trace:
    """A fully read trace plus the count of undecodable packets skipped."""

    packets: list
    skipped: int = 0

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.packets)

    def __len__(self) -> int:
        return len(self.packets)


# ---------------------------------------------------------------------------
# Text format


def format_packet(pkt: PacketRecord) -> str:
    flags = "".join(c for c in _FLAG_ORDER if c in pkt.tcp_flags) or "-"
    k = pkt.key
    return (
        f"{pkt.timestamp:.6f} {k.protocol} {k.src_addr} {k.src_port} "
        f"{k.dst_addr} {k.dst_port} {pkt.byte_len} {flags}"
    )


def parse_packet_line(line: str, lineno: int) -> PacketRecord:
    parts = line.split()
    if len(parts) != 8:
        raise TraceFormatError(
            f"line {lineno}: expected 8 fields, got {len(parts)}"
        )
    try:
        ts = float(parts[0])
        proto = int(parts[1])
        sport = int(parts[3])
        dport = int(parts[5])
        nbytes = int(parts[6])
        flags = _NO_FLAGS if parts[7] == "-" else frozenset(parts[7])
        key = FiveTuple(proto, parts[2], sport, parts[4], dport)
        return PacketRecord(ts, key, nbytes, flags)
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc


def write_trace(path, packets: Iterable[PacketRecord]) -> None:
    with open(path, "w", newline="\n") as fh:
        for pkt in packets:
            fh.write(format_packet(pkt))
            fh.write("\n")


def _read_text(path) -> Trace:
    packets = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                packets.append(parse_packet_line(line, lineno))
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"{path}: not a UTF-8 text trace ({exc.reason})"
            ) from exc
    _rebase(packets)
    return Trace(packets, skipped=0)


def _rebase(packets: list) -> None:
    if packets and packets[0].timestamp != 0.0:
        t0 = packets[0].timestamp
        for pkt in packets:
            pkt.timestamp -= t0


# ---------------------------------------------------------------------------
# pcap subset


def _pcap_layout(head: bytes):
    """Return ``(byte order, timestamp fraction unit)`` for a pcap global
    header's magic number, or None if ``head`` does not start with one."""
    if len(head) < 4:
        return None
    for endian in "<>":
        unit = _PCAP_FRACTION_UNITS.get(struct.unpack_from(endian + "I", head)[0])
        if unit is not None:
            return endian, unit
    return None


def _decode_ethernet_ipv4(data: bytes):
    """Decode Ethernet + IPv4 + TCP/UDP/ICMP; return fields or None to skip."""
    if len(data) < _ETHERNET_IPV4.size:
        return None
    ethertype, ver_ihl, total_len, frag, proto, src, dst = _ETHERNET_IPV4.unpack_from(data)
    l4 = 14 + (ver_ihl & 0x0F) * 4  # l4 < 34: an IHL below 5 words
    if ethertype != _ETHERTYPE_IPV4 or ver_ihl >> 4 != 4 or l4 < 34 or len(data) < l4:
        return None
    if frag & 0x1FFF or not total_len:  # a non-first fragment has no transport header
        return None
    need = _TRANSPORT_BYTES.get(proto)
    if need is None or len(data) < l4 + need:
        return None
    sport, dport = _PORTS.unpack_from(data, l4) if need else (0, 0)
    flags = _TCP_FLAGS[data[l4 + 13] & 0x07] if proto == TCP else _NO_FLAGS
    return FiveTuple(proto, inet_ntoa(src), sport, inet_ntoa(dst), dport), total_len, flags


def _read_pcap(path) -> Trace:
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise TraceFormatError(f"{path}: truncated pcap global header")
        layout = _pcap_layout(header)
        if layout is None:
            magic, = struct.unpack_from("<I", header)
            raise TraceFormatError(f"{path}: not a pcap file (magic {magic:#x})")
        endian, unit = layout
        network, = struct.unpack_from(endian + "I", header, 20)
        if network != 1:
            raise TraceFormatError(f"{path}: unsupported link type {network}")
        packets = []
        skipped = 0
        size = os.fstat(fh.fileno()).st_size
        while True:
            pkthdr = fh.read(16)
            if not pkthdr:
                break
            if len(pkthdr) < 16:
                raise TraceFormatError(f"{path}: truncated packet header at EOF")
            ts_sec, ts_frac, caplen, _orig = struct.unpack(endian + "IIII", pkthdr)
            if caplen > size - fh.tell():  # checked before reading: caplen is untrusted
                raise TraceFormatError(f"{path}: truncated packet body at EOF")
            data = fh.read(caplen)
            decoded = _decode_ethernet_ipv4(data)
            if decoded is None:
                skipped += 1
                continue
            key, total_len, flags = decoded
            packets.append(PacketRecord(ts_sec + ts_frac * unit, key, total_len, flags))
    _rebase(packets)
    return Trace(packets, skipped)


@_gc_paused
def read_trace(path, format: str = "auto") -> Trace:
    """Read a trace file; timestamps are rebased so the first packet is at 0.

    ``format`` is ``text``, ``pcap`` or ``auto`` (sniff the pcap magic).
    Text parsing errors are fatal and name the offending line; pcap packets
    that cannot be decoded are counted in ``Trace.skipped``.
    """
    if format == "auto":
        with open(path, "rb") as fh:
            format = "text" if _pcap_layout(fh.read(4)) is None else "pcap"
    if format == "pcap":
        return _read_pcap(path)
    if format == "text":
        return _read_text(path)
    raise ValueError(f"unknown trace format {format!r}")


# ---------------------------------------------------------------------------
# Synthetic traces


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters for a synthetic trace with a known flow-length distribution.

    Flow lengths are drawn from a discrete Pareto with tail exponent
    ``alpha`` (P(L = k) proportional to k**-(alpha+1)) truncated to
    [min_flow_len, max_flow_len].  Flow start times and intra-flow packet
    gaps are both exponential with mean ``mean_interarrival`` so packets of
    concurrent flows interleave.  ``byte_len_model`` is either a fixed
    integer or a ``(lo, hi)`` inclusive uniform range.  TCP flows open with
    one SYN packet; with probability ``extra_syn_prob`` a flow of length
    >= 2 carries a second SYN on its second packet (restricted to flows no
    longer than ``extra_syn_max_len`` when that is set).
    """

    num_flows: int
    alpha: float = 1.5
    min_flow_len: int = 1
    max_flow_len: int = 10_000
    mean_interarrival: float = 1.0
    tcp_fraction: float = 1.0
    extra_syn_prob: float = 0.0
    byte_len_model: int | tuple[int, int] = 1500
    seed: int = 0
    extra_syn_max_len: int | None = None

    def __post_init__(self):
        if self.num_flows < 1:
            raise ValueError("num_flows must be >= 1")
        if self.num_flows > 1 << 24:
            raise ValueError("num_flows exceeds the enumerable address space")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must be in (0, 2), got {self.alpha}")
        if not 1 <= self.min_flow_len <= self.max_flow_len:
            raise ValueError("need 1 <= min_flow_len <= max_flow_len")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not 0.0 <= self.tcp_fraction <= 1.0:
            raise ValueError("tcp_fraction must be in [0, 1]")
        if not 0.0 <= self.extra_syn_prob <= 1.0:
            raise ValueError("extra_syn_prob must be in [0, 1]")
        lo, hi = self._byte_range()
        if not 1 <= lo <= hi <= 65535:
            raise ValueError(f"byte_len_model {self.byte_len_model} outside [1, 65535]")

    def _byte_range(self) -> tuple[int, int]:
        if isinstance(self.byte_len_model, tuple):
            return self.byte_len_model
        return self.byte_len_model, self.byte_len_model


def _truncated_pareto_lengths(rng, alpha, lo, hi, n) -> np.ndarray:
    support = np.arange(lo, hi + 1, dtype=float)
    weights = support ** (-(alpha + 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return lo + np.searchsorted(cdf, rng.random(n), side="right")


def _flow_key(index: int, proto: int) -> FiveTuple:
    src = f"10.{(index >> 16) & 0xFF}.{(index >> 8) & 0xFF}.{index & 0xFF}"
    if proto == TCP:
        return FiveTuple(TCP, src, 1024 + (index % 50000), "192.168.0.1", 80)
    return FiveTuple(UDP, src, 1024 + (index % 50000), "192.168.0.1", 53)


@_gc_paused
def generate_trace(config: SyntheticTraceConfig):
    """Generate a packet stream with a known flow-length ground truth.

    Returns ``(packets, truth)`` where ``truth`` is the exact empirical
    distribution of the generated per-flow packet counts.  Deterministic for
    a fixed seed; timestamps are on the microsecond grid with the first
    packet at time 0.
    """
    rng = np.random.default_rng(config.seed & ((1 << 64) - 1))
    n = config.num_flows
    lengths = _truncated_pareto_lengths(
        rng, config.alpha, config.min_flow_len, config.max_flow_len, n
    )
    is_tcp = rng.random(n) < config.tcp_fraction
    extra_syn = (rng.random(n) < config.extra_syn_prob) & is_tcp & (lengths >= 2)
    if config.extra_syn_max_len is not None:
        extra_syn &= lengths <= config.extra_syn_max_len

    starts = np.cumsum(rng.exponential(config.mean_interarrival, n))
    total = int(lengths.sum())
    gaps = rng.exponential(config.mean_interarrival, total)
    first_idx = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    gaps[first_idx] = 0.0
    within = np.cumsum(gaps)
    within -= np.repeat(within[first_idx], lengths)
    ts = np.repeat(starts, lengths) + within
    ts = np.round(ts - ts[0], 6)

    lo, hi = config._byte_range()
    if lo == hi:
        byte_lens = np.full(total, lo, dtype=np.int64)
    else:
        byte_lens = rng.integers(lo, hi + 1, total)

    flow_of = np.repeat(np.arange(n), lengths)
    position = np.arange(total) - np.repeat(first_idx, lengths)
    order = np.argsort(ts, kind="stable")

    keys = [_flow_key(i, TCP if is_tcp[i] else UDP) for i in range(n)]
    packets = []
    append = packets.append
    for j in order:
        f = flow_of[j]
        pos = position[j]
        syn = is_tcp[f] and (pos == 0 or (pos == 1 and extra_syn[f]))
        append(
            PacketRecord(
                float(ts[j]),
                keys[f],
                int(byte_lens[j]),
                _SYN_ONLY if syn else _NO_FLAGS,
            )
        )
    truth = FlowLengthDistribution.from_lengths(lengths)
    return packets, truth
