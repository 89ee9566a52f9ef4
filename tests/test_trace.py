import gc
import os
import re
import struct
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flowinv
from flowinv.flowtable import UNBOUNDED, build_flows, read_flow_csv, write_flow_csv
from flowinv.sampling import ALWAYS
from flowinv.trace import (
    FiveTuple,
    PacketColumns,
    PacketRecord,
    SyntheticTraceConfig,
    TraceFormatError,
    _as_columns,
    generate_trace,
    parse_packet_line,
    read_trace,
    write_trace,
)


def test_parse_golden_line():
    pkt = parse_packet_line("0.000000 6 10.0.0.1 80 10.0.0.2 1234 1500 S", 1)
    assert pkt.timestamp == 0.0
    assert pkt.key == FiveTuple(6, "10.0.0.1", 80, "10.0.0.2", 1234)
    assert pkt.byte_len == 1500
    assert pkt.tcp_flags == frozenset("S")


def test_parse_no_flags_marker():
    pkt = parse_packet_line("1.500000 17 10.0.0.1 53 10.0.0.2 999 60 -", 1)
    assert pkt.tcp_flags == frozenset()
    assert pkt.key.protocol == 17


@pytest.mark.parametrize(
    "line",
    [
        "0.0 6 10.0.0.1 80 10.0.0.2",  # too few fields
        "0.0 6 10.0.0.1 80 10.0.0.2 1234 xyz S",  # bad byte count
        "0.0 6 10.0.0.1 80 10.0.0.2 1234 1500 Q",  # unknown flag
        "0.0 17 10.0.0.1 80 10.0.0.2 1234 60 S",  # flags on non-TCP
    ],
)
def test_parse_errors_name_line_number(line):
    with pytest.raises(TraceFormatError, match="line 7"):
        parse_packet_line(line, 7)


def test_read_text_names_line_of_malformed_record(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(
        "0.000000 6 10.0.0.1 80 10.0.0.2 1234 1500 S\n"
        "garbage\n"
    )
    with pytest.raises(TraceFormatError, match="line 2"):
        read_trace(path, format="text")


def test_empty_file_is_empty_stream(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    data = read_trace(path, format="text")
    assert list(data.packets) == [] and data.skipped == 0


def test_missing_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        read_trace(tmp_path / "nope.txt", format="text")


def test_write_read_identity(tmp_path):
    packets, _ = generate_trace(
        SyntheticTraceConfig(num_flows=50, max_flow_len=20, tcp_fraction=0.5, seed=4)
    )
    path = tmp_path / "trace.txt"
    write_trace(path, packets)
    back = read_trace(path, format="text")
    assert list(back.packets) == list(packets)


def test_read_rebases_timestamps(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(
        "5.000000 6 10.0.0.1 80 10.0.0.2 1234 1500 S\n"
        "6.250000 6 10.0.0.1 80 10.0.0.2 1234 1500 -\n"
    )
    data = read_trace(path, format="text")
    assert [pkt.timestamp for pkt in data.packets] == [0.0, 1.25]


def test_packet_columns_read_as_rows():
    packets, _ = generate_trace(
        SyntheticTraceConfig(num_flows=30, max_flow_len=10, tcp_fraction=0.5, seed=6)
    )
    rows = list(packets)
    assert len(rows) == len(packets) and rows == list(packets)
    assert [packets[i] for i in (0, 5, -1)] == [rows[0], rows[5], rows[-1]]
    part = packets[3:9]
    assert isinstance(part, PacketColumns) and list(part) == rows[3:9]
    # a list of rows converts to columns that read back as the same rows
    again = _as_columns(rows)
    assert list(again) == rows and again.keys is not packets.keys
    assert again.ts.dtype == np.float64 and again.flags.dtype == np.uint8


def test_packet_record_validation():
    key = FiveTuple(6, "1.2.3.4", 1, "5.6.7.8", 2)
    with pytest.raises(ValueError):
        PacketRecord(0.0, key, 0)  # zero-byte packet
    with pytest.raises(ValueError):
        PacketRecord(-1.0, key, 100)
    udp = FiveTuple(17, "1.2.3.4", 1, "5.6.7.8", 2)
    with pytest.raises(ValueError):
        PacketRecord(0.0, udp, 100, frozenset("S"))


# ---------------------------------------------------------------------------
# pcap subset


def _eth_ipv4(proto, src, dst, sport, dport, total_len, flags=0, ethertype=0x0800):
    eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack("!H", ethertype)
    src_b = bytes(int(x) for x in src.split("."))
    dst_b = bytes(int(x) for x in dst.split("."))
    ip = struct.pack(
        "!BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0, 64, proto, 0, src_b, dst_b
    )
    if proto == 6:
        l4 = struct.pack("!HHIIBB", sport, dport, 0, 0, 0x50, flags) + b"\x00" * 6
    elif proto == 17:
        l4 = struct.pack("!HHHH", sport, dport, 8, 0)
    else:
        l4 = b"\x08\x00\x00\x00"
    return eth + ip + l4


def _pcap_bytes(frames, endian="<", ts_step=0.5, nano=False, t0=1000.0):
    magic, per_sec = (0xA1B23C4D, 10**9) if nano else (0xA1B2C3D4, 10**6)
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for i, data in enumerate(frames):
        ticks = round((t0 + i * ts_step) * per_sec)
        sec, frac = divmod(ticks, per_sec)
        out.append(struct.pack(endian + "IIII", sec, frac, len(data), len(data)))
        out.append(data)
    return b"".join(out)


@pytest.mark.parametrize("endian", ["<", ">"])
def test_pcap_reader_decodes_tcp_udp_icmp(tmp_path, endian):
    frames = [
        _eth_ipv4(6, "10.0.0.1", "10.0.0.2", 80, 1234, 1500, flags=0x02),
        _eth_ipv4(17, "10.0.0.3", "10.0.0.4", 53, 5353, 60),
        _eth_ipv4(1, "10.0.0.5", "10.0.0.6", 0, 0, 84),
    ]
    path = tmp_path / "t.pcap"
    path.write_bytes(_pcap_bytes(frames, endian))
    data = read_trace(path)  # auto-detected
    assert data.skipped == 0
    assert [p.key.protocol for p in data.packets] == [6, 17, 1]
    assert data.packets[0].tcp_flags == frozenset("S")
    assert data.packets[0].byte_len == 1500
    assert data.packets[1].key == FiveTuple(17, "10.0.0.3", 53, "10.0.0.4", 5353)
    assert data.packets[2].key.src_port == 0
    assert [p.timestamp for p in data.packets] == [0.0, 0.5, 1.0]


def test_pcap_reader_skips_undecodable(tmp_path):
    frames = [
        _eth_ipv4(6, "10.0.0.1", "10.0.0.2", 80, 1234, 1500, flags=0x02)
        for _ in range(9)
    ]
    frames.insert(4, _eth_ipv4(6, "10.0.0.9", "10.0.0.8", 1, 2, 100, ethertype=0x86DD))
    path = tmp_path / "t.pcap"
    path.write_bytes(_pcap_bytes(frames))
    data = read_trace(path)
    assert len(data.packets) == 9
    assert data.skipped == 1


def test_pcap_reader_skips_unknown_protocol_and_truncated(tmp_path):
    ok = _eth_ipv4(6, "10.0.0.1", "10.0.0.2", 80, 1234, 1500, flags=0x02)
    gre = _eth_ipv4(47, "10.0.0.1", "10.0.0.2", 0, 0, 100)
    truncated_tcp = ok[:40]  # capture cut inside the TCP header
    path = tmp_path / "t.pcap"
    path.write_bytes(_pcap_bytes([ok, gre, truncated_tcp]))
    data = read_trace(path)
    assert len(data.packets) == 1
    assert data.skipped == 2


def test_pcap_structural_corruption_is_fatal(tmp_path):
    good = _pcap_bytes([_eth_ipv4(6, "10.0.0.1", "10.0.0.2", 80, 1, 1500, flags=0x02)])
    path = tmp_path / "t.pcap"
    path.write_bytes(good[:-5])  # cut into the packet body
    with pytest.raises(TraceFormatError):
        read_trace(path)
    path.write_bytes(b"\x00\x01\x02\x03" + b"not a pcap padding.." * 2)
    with pytest.raises(TraceFormatError, match="magic"):
        read_trace(path, format="pcap")


# Reads the pcap named in argv[1] under a 1.5 GB address-space limit.
_READ_UNDER_AS_LIMIT = r"""
import resource, sys
from flowinv.trace import TraceFormatError, read_trace
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 1_500_000_000 if hard == resource.RLIM_INFINITY else min(hard, 1_500_000_000)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
try:
    read_trace(sys.argv[1])
except TraceFormatError as exc:
    print(exc)
"""


def test_pcap_caplen_past_end_of_file_is_fatal_before_reading(tmp_path):
    good = _pcap_bytes([_eth_ipv4(6, "10.0.0.1", "10.0.0.2", 80, 1, 1500, flags=0x02)])
    path = tmp_path / "t.pcap"
    # the record header claims 4 GB of body that the file does not hold
    path.write_bytes(good[:32] + struct.pack("<I", 0xFFFFFFF0) + good[36:])
    src = str(Path(flowinv.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _READ_UNDER_AS_LIMIT, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "truncated packet body at EOF" in done.stdout


@pytest.mark.parametrize("endian", ["<", ">"])
def test_pcap_reader_nanosecond_timestamps(tmp_path, endian):
    frames = [
        _eth_ipv4(6, "10.0.0.1", "10.0.0.2", 80, 1234, 1500, flags=0x02),
        _eth_ipv4(17, "10.0.0.3", "10.0.0.4", 53, 5353, 60),
        _eth_ipv4(1, "10.0.0.5", "10.0.0.6", 0, 0, 84),
    ]
    path = tmp_path / "ns.pcap"
    # a 0.25 s fraction misread as microseconds would be 250 s, and the
    # 1 ns part of each step is below microsecond resolution
    path.write_bytes(
        _pcap_bytes(frames, endian, ts_step=0.250000001, t0=1000.75, nano=True)
    )
    for fmt in ("auto", "pcap"):
        data = read_trace(path, format=fmt)
        assert data.skipped == 0
        assert [p.key.protocol for p in data.packets] == [6, 17, 1]
        assert [p.timestamp for p in data.packets] == pytest.approx(
            [0.0, 0.250000001, 0.500000002], abs=1e-12
        )


def test_non_utf8_text_trace_names_the_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(
        b"0.000000 6 10.0.0.1 80 10.0.0.2 1234 1500 S\n"
        b"0.500000 6 caf\xe9 80 10.0.0.2 1234 1500 -\n"
    )
    for fmt in ("auto", "text"):
        with pytest.raises(TraceFormatError, match=re.escape(str(path))):
            read_trace(path, format=fmt)


def test_unknown_format_is_rejected(tmp_path):
    path = tmp_path / "t.pcap"
    path.write_bytes(_pcap_bytes([_eth_ipv4(17, "10.0.0.1", "10.0.0.2", 1, 2, 60)]))
    with pytest.raises(ValueError, match="unknown trace format 'pcap-subset'"):
        read_trace(path, format="pcap-subset")


# ---------------------------------------------------------------------------
# Synthetic traces


def test_generate_degenerate_single_flow():
    packets, truth = generate_trace(
        SyntheticTraceConfig(num_flows=1, min_flow_len=5, max_flow_len=5, seed=0)
    )
    assert len(packets) == 5
    assert len({p.key for p in packets}) == 1
    assert truth.max_len == 5 and truth.prob(5) == 1.0


def test_generate_is_deterministic():
    cfg = SyntheticTraceConfig(num_flows=200, max_flow_len=40, tcp_fraction=0.6, seed=42)
    first, truth_a = generate_trace(cfg)
    second, truth_b = generate_trace(cfg)
    assert list(first) == list(second)
    assert np.array_equal(truth_a.probs, truth_b.probs)


def test_ground_truth_matches_recount_by_five_tuple():
    packets, truth = generate_trace(
        SyntheticTraceConfig(num_flows=500, max_flow_len=100, tcp_fraction=0.5, seed=9)
    )
    recount = Counter()
    for pkt in packets:
        recount[pkt.key] += 1
    from flowinv.distributions import FlowLengthDistribution

    rebuilt = FlowLengthDistribution.from_lengths(recount.values())
    assert truth.max_len == rebuilt.max_len
    assert np.array_equal(truth.probs, rebuilt.probs)


def test_timestamps_non_decreasing_and_interleaved():
    packets, _ = generate_trace(
        SyntheticTraceConfig(num_flows=100, min_flow_len=3, max_flow_len=30, seed=2)
    )
    ts = [p.timestamp for p in packets]
    assert ts == sorted(ts)
    assert ts[0] == 0.0
    # packets of distinct flows intermix: some flow change between neighbours
    changes = sum(a.key != b.key for a, b in zip(packets, packets[1:]))
    assert changes > len(packets) // 2


def test_every_tcp_flow_opens_with_syn_and_extra_syn_rate():
    cfg = SyntheticTraceConfig(
        num_flows=4000,
        min_flow_len=2,
        max_flow_len=30,
        tcp_fraction=1.0,
        extra_syn_prob=0.3,
        seed=21,
    )
    packets, _ = generate_trace(cfg)
    syns = Counter()
    for pkt in packets:
        if "S" in pkt.tcp_flags:
            syns[pkt.key] += 1
    assert len(syns) == 4000  # every TCP flow has at least one SYN
    frac = sum(1 for n in syns.values() if n >= 2) / 4000
    sigma = (0.3 * 0.7 / 4000) ** 0.5
    assert abs(frac - 0.3) <= 3 * sigma


def test_extra_syn_max_len_restricts_to_short_flows():
    cfg = SyntheticTraceConfig(
        num_flows=2000,
        min_flow_len=2,
        max_flow_len=40,
        tcp_fraction=1.0,
        extra_syn_prob=1.0,
        extra_syn_max_len=3,
        seed=5,
    )
    packets, _ = generate_trace(cfg)
    syns = Counter()
    lengths = Counter()
    for pkt in packets:
        lengths[pkt.key] += 1
        if "S" in pkt.tcp_flags:
            syns[pkt.key] += 1
    for key, n in lengths.items():
        assert syns[key] == (2 if n <= 3 else 1)


def test_heavy_tail_ccdf_slope():
    _, truth = generate_trace(
        SyntheticTraceConfig(
            num_flows=100_000, alpha=1.5, min_flow_len=1, max_flow_len=10_000,
            mean_interarrival=0.01, seed=3,
        )
    )
    from flowinv.binning import ccdf, make_bins, ratio_for_bins_per_decade

    tail = dict(ccdf(truth))
    xs = [
        b
        for b in make_bins(truth.max_len, ratio_for_bins_per_decade(10))
        if 3 <= b <= 300 and tail.get(b, 0) > 0
    ]
    slope = np.polyfit(np.log10(xs), np.log10([tail[x] for x in xs]), 1)[0]
    assert -1.7 <= slope <= -1.3


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_flows=0),
        dict(num_flows=1, alpha=2.0),
        dict(num_flows=1, alpha=0.0),
        dict(num_flows=1, min_flow_len=5, max_flow_len=4),
        dict(num_flows=1, mean_interarrival=0.0),
        dict(num_flows=1, tcp_fraction=1.5),
        dict(num_flows=1, byte_len_model=0),
        dict(num_flows=1, byte_len_model=(100, 70000)),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SyntheticTraceConfig(**kwargs)


# ---------------------------------------------------------------------------
# Cyclic GC pause in the bulk readers and builders

_GC_CONFIG = SyntheticTraceConfig(
    num_flows=14_000, max_flow_len=200, tcp_fraction=0.5, seed=11
)
_BACKWARDS = [
    PacketRecord(1.0, FiveTuple(17, "10.0.0.1", 1, "10.0.0.2", 2), 60),
    PacketRecord(0.5, FiveTuple(17, "10.0.0.1", 1, "10.0.0.2", 2), 60),
]


@contextmanager
def _collections():
    """Collect the generation of every cyclic collection started in the block."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield started
    finally:
        gc.callbacks.remove(hook)


@pytest.fixture(scope="module")
def gc_inputs(tmp_path_factory):
    packets, _ = generate_trace(_GC_CONFIG)
    assert len(packets) >= 20_000
    root = tmp_path_factory.mktemp("gc")
    text, pcap, flows_csv = root / "t.txt", root / "t.pcap", root / "f.csv"
    write_trace(text, packets)
    pcap.write_bytes(_pcap_bytes(
        [
            _eth_ipv4(p.key.protocol, p.key.src_addr, p.key.dst_addr,
                      p.key.src_port, p.key.dst_port, p.byte_len,
                      flags=0x02 if "S" in p.tcp_flags else 0)
            for p in packets
        ],
        ts_step=0.001,
    ))
    write_flow_csv(build_flows(packets, UNBOUNDED, ALWAYS), flows_csv)
    return SimpleNamespace(packets=packets, text=text, pcap=pcap, flows_csv=flows_csv)


_BULK_CALLS = {
    "read_trace_text": lambda inp: read_trace(inp.text, format="text"),
    "read_trace_pcap": lambda inp: read_trace(inp.pcap, format="pcap"),
    "generate_trace": lambda inp: generate_trace(_GC_CONFIG),
    "build_flows": lambda inp: build_flows(inp.packets, UNBOUNDED, ALWAYS),
    "read_flow_csv": lambda inp: read_flow_csv(inp.flows_csv),
}


def test_collection_hook_sees_unpaused_allocations():
    with _collections() as started:
        kept = [[i] for i in range(20_000)]
    assert started and len(kept) == 20_000


@pytest.mark.parametrize("call", sorted(_BULK_CALLS))
def test_bulk_call_runs_without_cyclic_collections(gc_inputs, call):
    assert gc.isenabled()
    with _collections() as started:
        result = _BULK_CALLS[call](gc_inputs)
    assert started == []
    assert gc.isenabled()
    assert result


def test_collector_is_back_on_after_an_error(tmp_path):
    with pytest.raises(ValueError, match="packet 1"):
        build_flows(_BACKWARDS, UNBOUNDED, ALWAYS)
    assert gc.isenabled()
    bad = tmp_path / "bad.txt"
    bad.write_text("0.000000 6 10.0.0.1 80 10.0.0.2 1234 1500 S\ngarbage\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        read_trace(bad, format="text")
    assert gc.isenabled()


def test_collector_stays_off_when_the_caller_paused_it(gc_inputs):
    gc.disable()
    try:
        read_trace(gc_inputs.text, format="text")
        assert not gc.isenabled()
        with pytest.raises(ValueError, match="packet 1"):
            build_flows(_BACKWARDS, UNBOUNDED, ALWAYS)
        assert not gc.isenabled()
    finally:
        gc.enable()
