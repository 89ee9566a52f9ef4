"""Reference pcap frame decoder: the scalar decoder ``flowinv.trace`` used
before it read the IPv4 header with one ``struct.Struct``, kept verbatim so
the package's decoder can be compared against it."""

import struct

from flowinv.trace import _ETHERTYPE_IPV4, _NO_FLAGS, ICMP, TCP, UDP, FiveTuple


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
