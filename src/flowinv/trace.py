"""Packet traces: domain types, text and pcap readers, synthetic generation.

The text trace format is one packet per line::

    timestamp proto src sport dst dport bytes flags

with the timestamp printed to six decimal places, dotted-quad addresses and
``flags`` a subset of ``SFR`` (``-`` when empty).  The pcap reader handles
classic pcap files (microsecond or nanosecond magic, either byte order)
carrying Ethernet + IPv4 + TCP/UDP/ICMP; anything else is counted and
skipped.  A packet stream is held as ``PacketColumns``, whose rows are
``PacketRecord``s.
"""

from __future__ import annotations

import array
import functools
import gc
import itertools
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

# pcap magic number -> unit of the timestamp fraction field
_PCAP_FRACTION_UNITS = {0xA1B2C3D4: 1e-6, 0xA1B23C4D: 1e-9}
_ETHERTYPE_IPV4 = 0x0800
# transport bytes the decoder reads, by IP protocol: TCP up to its flags, UDP
# ports, none of ICMP; -1 for a protocol it skips
_TRANSPORT_BYTES = np.full(256, -1)
_TRANSPORT_BYTES[[TCP, UDP, ICMP]] = 14, 4, 0
# bytes a frame decode may read from the frame's start: up to the TCP flags
# after the longest IPv4 header
_FRAME_READ = 14 + 60 + 14
# flag set of each combination of the FIN (0x01), SYN (0x02) and RST (0x04) bits
_TCP_FLAGS = (_NO_FLAGS,) + tuple(
    frozenset(c for bit, c in enumerate("FSR") if i >> bit & 1) for i in range(1, 8)
)
_SYN = 0x02
_FLAG_BITS = {flags: bits for bits, flags in enumerate(_TCP_FLAGS)}
_FLAG_TEXT = tuple("".join(c for c in _FLAG_ORDER if c in flags) or "-" for flags in _TCP_FLAGS)
_FOREVER = float("inf")
# text I/O works in blocks: lines of about 64 K characters read (a block's
# token lists then stay in cache; 1 MB blocks read 1.8 times slower), and
# 65,536 rows written
_CHARS_PER_BLOCK = 1 << 16
_ROWS_PER_WRITE = 1 << 16


class TraceFormatError(ValueError):
    """A trace file cannot be parsed under its declared format."""


def _gc_paused(func):
    """Run ``func`` with the cyclic garbage collector paused.

    The bulk readers and builders allocate objects per text line or per
    flow record and create no reference cycles, so every collection the
    allocations trigger rescans the growing lists and frees nothing.  The collector is
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


class _KeyTable:
    """Flow keys as columns: protocol and ports in int arrays, addresses in
    lists of strings.  A key's ``FiveTuple`` is built when first asked for."""

    def __init__(self, proto, src, sport, dst, dport):
        self.proto, self.sport, self.dport = (np.asarray(c, dtype=np.int64) for c in (proto, sport, dport))
        self.src, self.dst = list(src), list(dst)
        self._tuples = [None] * len(self.src)

    @classmethod
    def of(cls, keys: list) -> _KeyTable:
        """The table of ``(proto, src, sport, dst, dport)`` tuples."""
        return cls(*(zip(*keys) if keys else [()] * 5))

    def tuples(self, key_ids: np.ndarray) -> list:
        """The ``FiveTuple`` of each key id in ``key_ids``."""
        built = self._tuples
        new = [k for k in np.unique(key_ids).tolist() if built[k] is None]
        for k, key in zip(new, map(FiveTuple, self.proto[new].tolist(), [self.src[k] for k in new],
                                   self.sport[new].tolist(), [self.dst[k] for k in new],
                                   self.dport[new].tolist())):
            built[k] = key
        return list(map(built.__getitem__, key_ids.tolist()))


class PacketColumns:
    """A packet stream as columns, read as a sequence of ``PacketRecord`` rows.

    ``ts`` (f8), ``key_id`` (i4, into the key table ``keys``), ``byte_len``
    (u2) and ``flags`` (u1: FIN 0x01, SYN 0x02, RST 0x04) hold one entry
    per packet.  A slice is another ``PacketColumns`` on the same keys.
    """

    def __init__(self, ts, key_id, byte_len, flags, keys: _KeyTable):
        self.ts = np.asarray(ts, dtype=np.float64)
        self.key_id = np.asarray(key_id, dtype=np.int32)
        self.byte_len = np.asarray(byte_len, dtype=np.uint16)
        self.flags = np.asarray(flags, dtype=np.uint8)
        self.keys = keys

    def __len__(self) -> int:
        return len(self.ts)

    def take(self, which) -> PacketColumns:
        """The packets picked by a mask, an index array or a slice."""
        return PacketColumns(self.ts[which], self.key_id[which], self.byte_len[which],
                             self.flags[which], self.keys)

    def __getitem__(self, i):
        return self.take(i) if isinstance(i, slice) else next(iter(self.take([i])))

    def __iter__(self) -> Iterator[PacketRecord]:
        # the columns were checked on the way in; a rebased timestamp may be
        # negative, as it was when rows were rebased in place
        for row in zip(self.ts.tolist(), self.keys.tuples(self.key_id), self.byte_len.tolist(),
                       map(_TCP_FLAGS.__getitem__, self.flags.tolist())):
            pkt = PacketRecord.__new__(PacketRecord)
            pkt.timestamp, pkt.key, pkt.byte_len, pkt.tcp_flags = row
            yield pkt


def _as_columns(packets) -> PacketColumns:
    """``packets`` as columns; any other iterable of ``PacketRecord`` is
    converted here, once."""
    if isinstance(packets, PacketColumns):
        return packets
    rows = list(packets)
    index: dict = {}
    key_id = [index.setdefault(pkt.key, len(index)) for pkt in rows]
    keys = _KeyTable.of([(k.protocol, k.src_addr, k.src_port, k.dst_addr, k.dst_port) for k in index])
    keys._tuples = list(index)
    return PacketColumns([pkt.timestamp for pkt in rows], key_id, [pkt.byte_len for pkt in rows],
                         [_FLAG_BITS[frozenset(pkt.tcp_flags)] for pkt in rows], keys)


@dataclass
class Trace:
    """A fully read trace plus the count of undecodable packets skipped."""

    packets: PacketColumns
    skipped: int = 0

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.packets)

    def __len__(self) -> int:
        return len(self.packets)


def _rebased(packets: PacketColumns) -> PacketColumns:
    """Shift timestamps so the first packet is at 0."""
    if len(packets) and packets.ts[0] != 0.0:
        packets.ts = packets.ts - packets.ts[0]
    return packets


# ---------------------------------------------------------------------------
# Text format


def parse_packet_line(line: str, lineno: int) -> PacketRecord:
    """One text line as a packet; errors name the line.  The reader checks
    whole blocks as columns and calls this only to name a bad line."""
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
    packets = _as_columns(packets)
    k = packets.keys
    middle = [f"{p} {s} {sp} {d} {dp}" for p, s, sp, d, dp in zip(
        k.proto.tolist(), k.src, k.sport.tolist(), k.dst, k.dport.tolist())]
    with open(path, "w", newline="\n") as fh:
        for lo in range(0, len(packets), _ROWS_PER_WRITE):
            part = packets.take(slice(lo, lo + _ROWS_PER_WRITE))
            fh.writelines(
                f"{t:.6f} {middle[key]} {nbytes} {_FLAG_TEXT[bits]}\n"
                for t, key, nbytes, bits in zip(part.ts.tolist(), part.key_id.tolist(),
                                                part.byte_len.tolist(), part.flags.tolist())
            )


def _parse_block(lines: list, index: dict, positions: Iterator[int]):
    """Columns ``(ts, key_at, byte_len, flags)`` of a block of text lines.

    Each column is converted with Python's ``float``/``int`` and checked as
    an array; a failure raises ValueError or OverflowError.  ``index`` maps
    each key to the stream position of its first packet, counted by
    ``positions``.
    """
    fields = list(map(str.split, lines))
    sizes = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
    if not ((sizes == 8) | (sizes == 0)).all():
        raise ValueError("a line without 8 fields")
    flat = list(itertools.chain.from_iterable(fields))
    ts = np.array(list(map(float, flat[0::8])), dtype=np.float64)
    proto, sport, dport, nbytes = (list(map(int, flat[i::8])) for i in (1, 3, 5, 6))
    bits_of = {t: _FLAG_BITS.get(_NO_FLAGS if t == "-" else frozenset(t), -1) for t in set(flat[7::8])}
    bits = np.array(list(map(bits_of.__getitem__, flat[7::8])), dtype=np.int64)
    protos, ports, nbytes = (np.array(c, dtype=np.int64) for c in (proto, [sport, dport], nbytes))
    if not (
        ((protos >= 0) & (protos <= 255)).all()
        and ((ports >= 0) & (ports <= 65535)).all()
        and ((ts >= 0.0) & (ts < _FOREVER)).all()
        and ((nbytes >= 1) & (nbytes <= 65535)).all()
        and ((bits == 0) | ((bits > 0) & (protos == TCP))).all()
    ):
        raise ValueError("a field out of range")
    keys = zip(proto, flat[2::8], sport, flat[4::8], dport)
    return ts, np.array(list(map(index.setdefault, keys, positions)), dtype=np.int64), nbytes, bits


def _read_text(path) -> Trace:
    index: dict = {}
    positions = itertools.count()
    blocks = [_parse_block([], index, positions)]  # an empty file is one empty block
    try:
        with open(path, encoding="utf-8") as fh:
            while lines := fh.readlines(_CHARS_PER_BLOCK):
                blocks.append(_parse_block(lines, index, positions))
    except (ValueError, OverflowError, UnicodeDecodeError):
        # name the first bad line, as a line-by-line read meets it
        with open(path, encoding="utf-8") as fh:
            try:
                for lineno, line in enumerate(fh, start=1):
                    if line.strip():
                        parse_packet_line(line, lineno)
            except UnicodeDecodeError as exc:
                raise TraceFormatError(
                    f"{path}: not a UTF-8 text trace ({exc.reason})"
                ) from exc
        raise
    ts, key_at, byte_len, flags = map(np.concatenate, zip(*blocks))
    # a key's id is the rank of its first packet, as in ``index``
    key_id = np.unique(key_at, return_inverse=True)[1]
    return Trace(_rebased(PacketColumns(ts, key_id, byte_len, flags, _KeyTable.of(list(index)))))


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


def _gather(buf: np.ndarray, at: np.ndarray, width: int, big_endian: bool = True) -> np.ndarray:
    """The ``width``-byte unsigned integer at each byte offset in ``at``."""
    value = np.zeros(len(at), dtype=np.int64)
    for i in range(width):
        value |= buf[at + i].astype(np.int64) << (8 * (width - 1 - i) if big_endian else 8 * i)
    return value


def _decode_frames(buf: np.ndarray, frame: np.ndarray, caplen: np.ndarray):
    """Decode the Ethernet + IPv4 + TCP/UDP/ICMP frames at byte offsets
    ``frame``: a mask of those that decode, and their ``(proto, src,
    sport, dst, dport, total_len, flags)`` columns.

    ``buf`` runs ``_FRAME_READ`` bytes past the last frame start, so no
    gather leaves it; bytes past a frame's ``caplen`` are read, never used.
    """
    ethertype, ver_ihl = _gather(buf, frame + 12, 2), _gather(buf, frame + 14, 1)
    total_len, proto = _gather(buf, frame + 16, 2), _gather(buf, frame + 23, 1)
    l4 = 14 + (ver_ihl & 0x0F) * 4  # l4 < 34: an IHL below 5 words
    need = _TRANSPORT_BYTES[proto]
    ok = (
        (caplen >= 34) & (ethertype == _ETHERTYPE_IPV4) & (ver_ihl >> 4 == 4)
        & (l4 >= 34) & (caplen >= l4)
        # a non-first fragment has no transport header
        & (_gather(buf, frame + 20, 2) & 0x1FFF == 0) & (total_len != 0)
        & (need >= 0) & (caplen >= l4 + need)
    )
    frame, l4, proto, ports = frame[ok], l4[ok], proto[ok], need[ok] > 0
    return ok, (
        proto, _gather(buf, frame + 26, 4), np.where(ports, _gather(buf, frame + l4, 2), 0),
        _gather(buf, frame + 30, 4), np.where(ports, _gather(buf, frame + l4 + 2, 2), 0),
        total_len[ok], np.where(proto == TCP, _gather(buf, frame + l4 + 13, 1) & 0x07, 0),
    )


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
        size = max(os.fstat(fh.fileno()).st_size - 24, 0)
        buf = np.zeros(size + _FRAME_READ, dtype=np.uint8)
        size = fh.readinto(memoryview(buf)[:size])
    # one pass over the record headers: caplen is untrusted, so it is checked
    # against the bytes left before the next header is looked for
    caplen_at = struct.Struct(endian + "I").unpack_from
    records, at = array.array("q"), 0  # 8 bytes per record, not a list of ints
    while at < size:
        if size - at < 16:
            raise TraceFormatError(f"{path}: truncated packet header at EOF")
        caplen, = caplen_at(buf, at + 8)
        if caplen > size - at - 16:
            raise TraceFormatError(f"{path}: truncated packet body at EOF")
        records.append(at)
        at += 16 + caplen
    record, big = np.array(records, dtype=np.int64), endian == ">"
    ok, (proto, src, sport, dst, dport, total_len, flags) = _decode_frames(
        buf, record + 16, _gather(buf, record + 8, 4, big)
    )
    decoded = record[ok]
    ts = _gather(buf, decoded, 4, big) + _gather(buf, decoded + 4, 4, big) * unit
    # intern the keys, packed into 16 bytes: (src, dst) and (proto, ports)
    packed = np.stack([src << 32 | dst, proto << 32 | sport << 16 | dport], axis=1)
    first, key_id = np.unique(packed.view(np.dtype((np.void, 16))).ravel(),
                              return_index=True, return_inverse=True)[1:]
    text = [inet_ntoa(a.to_bytes(4, "big")) for a in np.append(src[first], dst[first]).tolist()]
    keys = _KeyTable(proto[first], text[: len(first)], sport[first], text[len(first):], dport[first])
    packets = PacketColumns(ts, key_id, total_len, flags, keys)
    return Trace(_rebased(packets), len(records) - len(decoded))


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
    syn = is_tcp[flow_of] & ((position == 0) | ((position == 1) & extra_syn[flow_of]))
    order = np.argsort(ts, kind="stable")

    # flow i's key: source 10.x.y.z spelling i, port 1024 + i mod 50000
    index = np.arange(n)
    keys = _KeyTable(
        np.where(is_tcp, TCP, UDP),
        [f"10.{i >> 16 & 0xFF}.{i >> 8 & 0xFF}.{i & 0xFF}" for i in range(n)],
        1024 + index % 50000,
        ["192.168.0.1"] * n,
        np.where(is_tcp, 80, 53),
    )
    packets = PacketColumns(ts[order], flow_of[order], byte_lens[order], np.where(syn[order], _SYN, 0), keys)
    truth = FlowLengthDistribution.from_lengths(lengths)
    return packets, truth
