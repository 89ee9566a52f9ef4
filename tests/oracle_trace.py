"""Reference trace readers, kept verbatim so the package's readers can be
compared against them.

* ``_decode_ethernet_ipv4``: the scalar pcap frame decoder ``flowinv.trace``
  used before it read the IPv4 header with one ``struct.Struct``.
* ``_read_pcap``: the record-by-record pcap reader that ran before frames
  were decoded as columns; it builds one ``PacketRecord`` per packet.
* ``parse_packet_line`` and ``_read_text``: the line-by-line text reader
  that ran before text was parsed in blocks.
"""

import os
import struct

from flowinv.trace import (
    _ETHERTYPE_IPV4,
    _NO_FLAGS,
    ICMP,
    TCP,
    UDP,
    FiveTuple,
    PacketRecord,
    Trace,
    TraceFormatError,
    _pcap_layout,
)


def _decode_ethernet_ipv4(data: bytes):
    """Decode Ethernet + IPv4 + TCP/UDP/ICMP; return fields or None to skip."""
    if len(data) < 34:  # 14 ethernet + 20 minimal IP
        return None
    if struct.unpack_from("!H", data, 12)[0] != _ETHERTYPE_IPV4:
        return None
    ip_off = 14
    ver_ihl = data[ip_off]
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < ip_off + ihl:
        return None
    total_len, = struct.unpack_from("!H", data, ip_off + 2)
    frag, = struct.unpack_from("!H", data, ip_off + 6)
    if frag & 0x1FFF:  # non-first fragment: no transport header to read
        return None
    proto = data[ip_off + 9]
    src = ".".join(str(b) for b in data[ip_off + 12 : ip_off + 16])
    dst = ".".join(str(b) for b in data[ip_off + 16 : ip_off + 20])
    l4 = ip_off + ihl
    flags = _NO_FLAGS
    if proto == TCP:
        if len(data) < l4 + 14:
            return None
        sport, dport = struct.unpack_from("!HH", data, l4)
        bits = data[l4 + 13]
        got = [c for c, mask in (("F", 0x01), ("S", 0x02), ("R", 0x04)) if bits & mask]
        flags = frozenset(got) if got else _NO_FLAGS
    elif proto == UDP:
        if len(data) < l4 + 4:
            return None
        sport, dport = struct.unpack_from("!HH", data, l4)
    elif proto == ICMP:
        sport = dport = 0
    else:
        return None
    if not 1 <= total_len <= 65535:
        return None
    return FiveTuple(proto, src, sport, dst, dport), total_len, flags


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
