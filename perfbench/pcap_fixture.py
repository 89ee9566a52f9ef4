"""Classic microsecond pcap writer for the pcap_sweep fixture, built on struct.

Each packet becomes an Ethernet + IPv4 + TCP/UDP frame captured up to the end
of its transport header; the IP total length carries the packet's byte
length.  A known number of undecodable frames of each kind is injected
between the packets, each stamped with the time of the packet it precedes so
the capture stays time-ordered.
"""

from __future__ import annotations

import random
import struct

_GLOBAL = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")

_MAGIC_US = 0xA1B2C3D4
_LINKTYPE_ETHERNET = 1
_SNAPLEN = 65535
_MACS = bytes.fromhex("020000000002020000000001")
_ETH_IPV4 = _MACS + b"\x08\x00"
_ETH_IPV6 = _MACS + b"\x86\xdd"
_TCP_PROTO = 6
_GRE_PROTO = 47
_SYN = 0x02
_ACK = 0x10
_FRAG_OFFSET = 0x00B9  # a non-first fragment: offset 185 * 8 bytes
_EPOCH_US = 1_500_000_000 * 1_000_000

#: Undecodable frame kinds, each skipped by a different check in the reader.
BAD_KINDS = ("non_ipv4", "fragment", "unknown_protocol", "truncated_l4")


def _addr(text: str) -> bytes:
    return bytes(int(part) for part in text.split("."))


def _frame(key, byte_len: int, syn: bool, *, proto=None, frag=0, ethernet=_ETH_IPV4) -> bytes:
    ip = _IPV4.pack(0x45, 0, byte_len, 0, frag, 64,
                    key.protocol if proto is None else proto, 0,
                    _addr(key.src_addr), _addr(key.dst_addr))
    if key.protocol == _TCP_PROTO:
        l4 = _TCP.pack(key.src_port, key.dst_port, 0, 0, 5 << 4,
                       _SYN if syn else _ACK, 65535, 0, 0)
    else:
        l4 = _UDP.pack(key.src_port, key.dst_port, byte_len - 20, 0)
    return ethernet + ip + l4


def _bad_frame(kind: str, key, byte_len: int) -> bytes:
    if kind == "non_ipv4":
        return _frame(key, byte_len, False, ethernet=_ETH_IPV6)
    if kind == "fragment":
        return _frame(key, byte_len, False, frag=_FRAG_OFFSET)
    if kind == "unknown_protocol":
        return _frame(key, byte_len, False, proto=_GRE_PROTO)
    # IPv4 header intact, transport header cut after two bytes
    return _frame(key, byte_len, False)[: 14 + 20 + 2]


def write_pcap(path, packets, bad_per_kind: int, seed: int) -> dict[str, int]:
    """Write ``packets`` plus ``bad_per_kind`` undecodable frames of each kind.

    Injection positions are drawn from ``seed``.  Returns the count injected
    per kind.
    """
    rng = random.Random(seed)
    slots = rng.sample(range(len(packets)), bad_per_kind * len(BAD_KINDS))
    bad_at = {slot: BAD_KINDS[i % len(BAD_KINDS)] for i, slot in enumerate(slots)}
    record = _RECORD.pack
    with open(path, "wb") as fh:
        fh.write(_GLOBAL.pack(_MAGIC_US, 2, 4, 0, 0, _SNAPLEN, _LINKTYPE_ETHERNET))
        for index, pkt in enumerate(packets):
            sec, usec = divmod(_EPOCH_US + round(pkt.timestamp * 1e6), 1_000_000)
            kind = bad_at.get(index)
            if kind is not None:
                bad = _bad_frame(kind, pkt.key, pkt.byte_len)
                fh.write(record(sec, usec, len(bad), 14 + pkt.byte_len))
                fh.write(bad)
            frame = _frame(pkt.key, pkt.byte_len, "S" in pkt.tcp_flags)
            fh.write(record(sec, usec, len(frame), 14 + pkt.byte_len))
            fh.write(frame)
    counts = dict.fromkeys(BAD_KINDS, 0)
    for kind in bad_at.values():
        counts[kind] += 1
    return counts
