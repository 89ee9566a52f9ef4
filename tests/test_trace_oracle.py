"""Differential and property tests of the trace readers: the column frame
decoder against the scalar reference decoder, both readers against the
record-by-record reference readers, and the pcap reader on corrupt files."""

import itertools
import struct
import tempfile
from socket import inet_ntoa
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowinv import trace
from flowinv.trace import (
    _FRAME_READ,
    _TCP_FLAGS,
    FiveTuple,
    TraceFormatError,
    _decode_frames,
    read_trace,
)
from oracle_trace import _decode_ethernet_ipv4 as oracle_decode
from oracle_trace import _read_pcap as oracle_read_pcap
from oracle_trace import _read_text as oracle_read_text

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


def _decode_all(frames):
    """Decode frames laid end to end with the column decoder, each as the
    scalar decoder's ``(key, total_len, flags)`` or None."""
    sizes = np.array([len(frame) for frame in frames], dtype=np.int64)
    buf = np.frombuffer(b"".join(frames) + bytes(_FRAME_READ), dtype=np.uint8)
    ok, columns = _decode_frames(buf, np.cumsum(sizes) - sizes, sizes)
    rows = zip(*(col.tolist() for col in columns))
    out = []
    for good in ok.tolist():
        if good:
            proto, src, sport, dst, dport, total_len, flags = next(rows)
            src, dst = (inet_ntoa(a.to_bytes(4, "big")) for a in (src, dst))
            key = FiveTuple(proto, src, sport, dst, dport)
            out.append((key, total_len, _TCP_FLAGS[flags]))
        else:
            out.append(None)
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frames=st.lists(st.binary(max_size=80), min_size=1, max_size=8))
def test_decoder_matches_oracle_on_random_bytes(frames):
    assert _decode_all(frames) == [oracle_decode(data) for data in frames]


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(frame=_frames())
def test_decoder_matches_oracle_at_every_truncation(frame):
    cuts = [frame[:end] for end in range(len(frame) + 1)]
    assert _decode_all(cuts) == [oracle_decode(cut) for cut in cuts]


def test_decoder_matches_oracle_on_every_tcp_flag_byte():
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 60, 0, 0, 64, 6, 0,
                     bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]))
    frames = [_MACS + b"\x08\x00" + ip + struct.pack("!HHIIBB", 80, 1234, 0, 0, 0x50, flags)
              for flags in range(256)]
    got = _decode_all(frames)
    assert got == [oracle_decode(frame) for frame in frames]
    for flags, (_, _, seen) in enumerate(got):
        assert seen == {c for bit, c in ((1, "F"), (2, "S"), (4, "R")) if flags & bit}


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


def _outcome(read, path):
    """The packets and skip count a reader returns, or its error message."""
    try:
        data = read(path)
    except TraceFormatError as exc:
        return f"TraceFormatError: {exc}"
    return list(data.packets), data.skipped


@st.composite
def _pcap_files(draw):
    """pcap files in either byte order and timestamp unit whose records
    carry frames near the IPv4 path, random bytes or a false caplen, with
    random bytes after the last record now and then."""
    endian = draw(st.sampled_from("<>"))
    magic = draw(st.sampled_from([0xA1B2C3D4, 0xA1B23C4D]))
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for _ in range(draw(st.integers(0, 6))):
        frame = draw(_frames() | st.binary(max_size=60))
        caplen = draw(_mostly(len(frame), 0, len(frame) + 1, 2**32 - 1))
        sec, frac = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
        out.append(struct.pack(endian + "IIII", sec, frac, caplen, len(frame)) + frame)
    out.append(draw(_mostly(b"", b"\x00", b"\x00" * 15, b"\x00" * 17)))
    return b"".join(out)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(blob=_pcap_files())
def test_pcap_reader_matches_oracle(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("pcap") / "t.pcap"
    path.write_bytes(blob)
    assert _outcome(lambda p: read_trace(p, format="pcap"), path) == _outcome(
        oracle_read_pcap, path
    )


def _seldom(common, *rare):
    """Draws from ``common``, and one of ``rare`` about one time in 120."""
    return st.integers(0, 119).flatmap(lambda r: st.sampled_from(rare) if r == 0 else common)


_TS = _seldom(
    st.floats(0.0, 1e6).map(lambda t: f"{t:.6f}")
    | st.sampled_from(["0.000000", "-0.0", "7", "+3.25", "1_0.5", "٣.5", "1e2"]),
    "-1.0", "nan", "inf", "1e400", "x",
)
_PROTO = _seldom(st.sampled_from(["6", "6", "6", "17", "1", "06", "255"]),
                 "256", "-1", "x", "6.0", "9" * 25)
_ADDR = st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.0.1", "x"])
_PORT = _seldom(st.sampled_from(["80", "53", "0", "65535", "080"]) | st.integers(0, 65535).map(str),
                "65536", "-1", "x", "9" * 25)
_BYTES = _seldom(st.sampled_from(["1500", "40", "1", "65535"]), "0", "65536", "x", "-5", "9" * 25)
_FLAG = _seldom(st.sampled_from(["-", "-", "-", "S", "SF", "FSR", "SS", "R"]),
                "Q", "S-", "--", "s", "SQ")
_SEP = _mostly(" ", "\t", "  ", "\x0b", " \x1c")


@st.composite
def _text_traces(draw):
    """Text traces near the format: fields valid about two times in three,
    odd whitespace, short and long lines, blank lines, CRLF and bare CR."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(_seldom(st.just("packet"), "blank", "short", "long"))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        proto = draw(_PROTO)
        flags = draw(_FLAG if proto in ("6", "06") else _seldom(st.just("-"), "S", "R"))
        fields = [draw(_TS), proto, draw(_ADDR), draw(_PORT), draw(_ADDR),
                  draw(_PORT), draw(_BYTES), flags]
        if kind == "short":
            fields = fields[: draw(st.integers(1, 7))]
        elif kind == "long":
            fields.append("extra")
        line = fields[0]
        for field in fields[1:]:
            line += draw(_SEP) + field
        lines.append(draw(_mostly("", " ", "\t")) + line)
    ends = [draw(_mostly("\n", "\r\n", "\r")) for _ in lines]
    last = draw(st.booleans())
    return "".join(line + end for line, end in zip(lines, ends[:-1] + [ends[-1] * last] if lines else []))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=_text_traces(), block=st.sampled_from([1 << 20, 1, 7, 64]))
def test_text_reader_matches_oracle(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("text") / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(trace, "_CHARS_PER_BLOCK", block):
        got = _outcome(lambda p: read_trace(p, format="text"), path)
    assert got == _outcome(oracle_read_text, path)


_GOOD_LINE = "1.000000 6 10.0.0.1 80 10.0.0.2 1234 1500 S"


@pytest.mark.parametrize("bad", [
    "1.0 6 10.0.0.1 80 10.0.0.2 1234 1500",
    "1.0 6 10.0.0.1 80 10.0.0.2 1234 1500 S S",
    "x 6 10.0.0.1 80 10.0.0.2 1234 1500 S",
    "nan 6 10.0.0.1 80 10.0.0.2 1234 1500 S",
    "inf 6 10.0.0.1 80 10.0.0.2 1234 1500 S",
    "-2.0 6 10.0.0.1 80 10.0.0.2 1234 1500 S",
    "1.0 tcp 10.0.0.1 80 10.0.0.2 1234 1500 S",
    "1.0 256 10.0.0.1 80 10.0.0.2 1234 1500 -",
    "1.0 6 10.0.0.1 65536 10.0.0.2 1234 1500 S",
    "1.0 6 10.0.0.1 80 10.0.0.2 -1 1500 S",
    "1.0 6 10.0.0.1 80 10.0.0.2 99999999999999999999999 1500 S",
    "1.0 6 10.0.0.1 80 10.0.0.2 1234 0 S",
    "1.0 6 10.0.0.1 80 10.0.0.2 1234 65536 S",
    "1.0 6 10.0.0.1 80 10.0.0.2 1234 1.5 S",
    "1.0 6 10.0.0.1 80 10.0.0.2 1234 1500 Q",
    "1.0 17 10.0.0.1 80 10.0.0.2 1234 1500 S",
    "1.0 1 10.0.0.1 0 10.0.0.2 0 84 R",
])
def test_text_reader_names_each_kind_of_bad_line(tmp_path, bad):
    path = tmp_path / "t.txt"
    path.write_text(f"{_GOOD_LINE}\n\n{bad}\n{_GOOD_LINE}\n")
    got = _outcome(lambda p: read_trace(p, format="text"), path)
    assert got == _outcome(oracle_read_text, path)
    assert got.startswith("TraceFormatError: line 3: ")
