"""Differential tests: ``build_flows`` against the scalar reference table,
and the hold-start rule ``_starts`` against the reference ``decide``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from flowinv.flowtable import UNBOUNDED, FlowTableConfig, build_flows
from flowinv.sampling import METHODS, SamplerConfig, _starts
from flowinv.trace import FiveTuple, PacketRecord
from oracle_flowtable import Decision, decide
from oracle_flowtable import build_flows as oracle_build_flows

KEYS = (
    FiveTuple(6, "10.0.0.1", 80, "10.0.0.2", 1000),
    FiveTuple(6, "10.0.0.1", 81, "10.0.0.2", 1000),
    FiveTuple(17, "10.0.0.1", 53, "10.0.0.2", 1000),
    FiveTuple(6, "10.0.0.3", 443, "10.0.0.4", 2000),
)
FLAGS = (frozenset(), frozenset("S"), frozenset("SF"), frozenset("R"))

# a zero gap ties the packet's timestamp to the previous one's
_packet = st.tuples(
    st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5, 7.0]),
    st.integers(0, len(KEYS) - 1),
    st.integers(40, 1500),
    st.sampled_from(FLAGS),
)
# drawing the length first gives traces of up to 40 packets evenly; a plain
# st.lists averages about five
_rows = st.integers(0, 40).flatmap(lambda n: st.lists(_packet, min_size=n, max_size=n))
_seconds = st.one_of(st.sampled_from([1.0, 2.5, 7.0]), st.floats(0.1, 20.0))
_table = st.one_of(
    st.just(UNBOUNDED),
    st.builds(FlowTableConfig, _seconds, _seconds, st.integers(1, 6)),
)


def _trace(start, rows):
    packets, t = [], start
    for gap, k, nbytes, flags in rows:
        t += gap
        key = KEYS[k]
        flags = flags if key.protocol == 6 else frozenset()
        packets.append(PacketRecord(t, key, nbytes, flags))
    return packets


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    start=st.floats(0.0, 100.0),
    rows=_rows,
    table=_table,
    p=st.one_of(st.sampled_from([1.0, 0.5, 0.1]), st.floats(0.01, 1.0)),
    seed=st.integers(0, 2**32),
)
def test_build_flows_matches_scalar_oracle(start, rows, table, p, seed):
    packets = _trace(start, rows)
    for method in METHODS:
        sampler = SamplerConfig(method, p, seed)
        got = build_flows(packets, table, sampler)
        want = oracle_build_flows(packets, table, sampler)
        assert got.records == want.records, method
        assert got.window_boundaries == want.window_boundaries, method
        assert got.packets_seen == want.packets_seen, method
        assert got.packets_admitted == want.packets_admitted, method


# seeds outside [0, 2**64) reach the counter unmasked; _uniform reduces mod 2**64
_seeds = st.one_of(
    st.sampled_from([0, -1, -(2**64) - 3, 2**64, 2**64 + 5, 2**70 + 1]),
    st.integers(-(2**66), 2**66),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    p=st.one_of(st.just(1.0), st.sampled_from([0.5, 1e-3]), st.floats(0.0, 1.0, exclude_min=True)),
    seed=_seeds,
    k=st.integers(0, len(KEYS) - 1),
    nbytes=st.integers(2, 1500),
    flags=st.sampled_from(FLAGS),
    index=st.integers(0, 10**9),
)
def test_starts_matches_scalar_oracle(p, seed, k, nbytes, flags, index):
    pkt = _trace(0.0, [(0.0, k, nbytes, flags)])[0]
    for method in METHODS:
        config = SamplerConfig(method, p, seed)
        want = decide(config, pkt, False, index) is not Decision.SKIP
        assert _starts(config, pkt, index) is want, method
