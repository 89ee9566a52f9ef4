"""Differential and property tests of the pcap path: the frame decoder
against the scalar reference decoder, and the reader on corrupt files."""

import itertools
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowinv.trace import TraceFormatError, _decode_ethernet_ipv4, read_trace
from oracle_trace import _decode_ethernet_ipv4 as oracle_decode

_MACS = b"\xaa" * 6 + b"\xbb" * 6
_GLOBAL_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)


def _mostly(valid, *others):
    """A value that is ``valid`` about two times in three."""
    return st.sampled_from([valid] * (2 * len(others)) + list(others))


@st.composite
def _frames(draw):
    """Ethernet frames near the IPv4 path, every header field drawn; each
    field is valid often enough that most frames reach the transport layer."""
    ethertype = draw(_mostly(0x0800, 0x86DD, 0x8100, 0x0000))
    version = draw(_mostly(4, 6, 0, 5, 15))
    ihl = draw(_mostly(5, *range(16)))
    total_len = draw(_mostly(1500, 0, 1, 20, 65535) | st.integers(0, 65535))
    # first fragments with DF or MF set, offsets at either end of the field
    frag = draw(_mostly(0, 0x4000, 0x2000, 0x0001, 0x1000, 0x2001) | st.integers(0, 0xFFFF))
    proto = draw(_mostly(6, 17, 1, 6, 17, 1, 47, 0, 255))
    src, dst = draw(st.binary(min_size=4, max_size=4)), draw(st.binary(min_size=4, max_size=4))
    ip = struct.pack("!BBHHHBBH4s4s", version << 4 | ihl, 0, total_len, 0, frag, 64,
                     proto, 0, src, dst)
    options = draw(st.binary(min_size=max(0, ihl * 4 - 20), max_size=max(0, ihl * 4 - 20)))
    ports = draw(st.binary(min_size=4, max_size=4))
    flags = draw(st.integers(0, 255))
    tcp = ports + bytes(8) + bytes([0x50, flags]) + bytes(6)
    transport = tcp if proto == 6 else ports + draw(st.binary(max_size=8))
    return _MACS + struct.pack("!H", ethertype) + ip + options + transport


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.binary(max_size=80))
def test_decoder_matches_oracle_on_random_bytes(data):
    assert _decode_ethernet_ipv4(data) == oracle_decode(data)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(frame=_frames())
def test_decoder_matches_oracle_at_every_truncation(frame):
    for end in range(len(frame) + 1):
        assert _decode_ethernet_ipv4(frame[:end]) == oracle_decode(frame[:end])


def test_decoder_matches_oracle_on_every_tcp_flag_byte():
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 60, 0, 0, 64, 6, 0,
                     bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]))
    for flags in range(256):
        frame = _MACS + b"\x08\x00" + ip + struct.pack("!HHIIBB", 80, 1234, 0, 0, 0x50, flags)
        got = _decode_ethernet_ipv4(frame)
        assert got == oracle_decode(frame)
        assert got[2] == {c for bit, c in ((1, "F"), (2, "S"), (4, "R")) if flags & bit}


@pytest.fixture(scope="module")
def read_blob():
    """Read bytes as a trace file; each call writes a new file, because
    truncating an existing one can take tens of milliseconds."""
    with tempfile.TemporaryDirectory() as tmp:
        names = itertools.count()

        def read(blob, fmt="pcap"):
            path = Path(tmp) / f"{next(names)}.pcap"
            path.write_bytes(blob)
            return read_trace(path, format=fmt)

        yield read


def _record(frame, caplen=None):
    caplen = len(frame) if caplen is None else caplen
    return struct.pack("<IIII", 7, 0, caplen, len(frame)) + frame


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    records=st.lists(
        st.one_of(
            st.binary(max_size=60),
            st.builds(_record, _frames()),
            st.builds(_record, st.binary(max_size=40), st.integers(0, 2**32 - 1)),
        ),
        max_size=4,
    )
)
def test_reader_parses_or_raises_trace_format_error(read_blob, records):
    try:
        read_blob(_GLOBAL_HEADER + b"".join(records))
    except TraceFormatError:
        pass


@settings(derandomize=True, max_examples=40, deadline=None)
@given(frames=st.lists(_frames(), min_size=3, max_size=3))
def test_every_truncation_of_a_valid_pcap(read_blob, frames):
    records = [_record(frame) for frame in frames]
    blob = _GLOBAL_HEADER + b"".join(records)
    whole = [len(_GLOBAL_HEADER)]
    for rec in records:
        whole.append(whole[-1] + len(rec))
    for end in range(len(blob) + 1):
        for fmt in ("pcap", "auto"):
            if end in whole:
                data = read_blob(blob[:end], fmt)
                assert len(data) + data.skipped == whole.index(end)
            elif end or fmt == "pcap":
                with pytest.raises(TraceFormatError):
                    read_blob(blob[:end], fmt)
