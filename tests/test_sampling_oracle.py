"""Differential tests: the column samplers and the calibration profile
against the per-packet loops they replaced (``oracle_sampling``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_sampling as oracle
from flowinv.sampling import (
    METHODS,
    SamplerConfig,
    _profile_stream,
    resample_as_packet_sample,
    sample_packets,
)
from flowinv.trace import FiveTuple, PacketRecord, SyntheticTraceConfig, generate_trace

KEYS = (
    FiveTuple(6, "10.0.0.1", 80, "10.0.0.2", 1000),
    FiveTuple(6, "10.0.0.1", 81, "10.0.0.2", 1000),
    FiveTuple(17, "10.0.0.1", 53, "10.0.0.2", 1000),
    FiveTuple(6, "10.0.0.3", 443, "10.0.0.4", 2000),
)
FLAGS = (frozenset(), frozenset("S"), frozenset("SF"), frozenset("R"))

_packets = st.lists(
    st.tuples(st.integers(0, len(KEYS) - 1), st.integers(1, 1500), st.sampled_from(FLAGS)),
    max_size=60,
).map(lambda rows: [
    PacketRecord(float(i), KEYS[k], nbytes, flags if KEYS[k].protocol == 6 else frozenset())
    for i, (k, nbytes, flags) in enumerate(rows)
])
_p = st.one_of(st.sampled_from([1.0, 0.5, 1e-3]), st.floats(0.0, 1.0, exclude_min=True))
_seeds = st.one_of(st.sampled_from([0, -1, 2**64, 2**64 + 5]), st.integers(-(2**66), 2**66))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(packets=_packets, p=_p, seed=_seeds)
def test_sample_packets_matches_scalar_oracle(packets, p, seed):
    for method in METHODS:
        config = SamplerConfig(method, p, seed)
        assert list(sample_packets(packets, config)) == oracle.sample_packets(packets, config)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(packets=_packets, p=_p, seed=_seeds)
def test_resample_matches_scalar_oracle(packets, p, seed):
    got = resample_as_packet_sample(packets, p, seed)
    assert list(got) == oracle.resample_as_packet_sample(packets, p, seed)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(packets=_packets)
def test_profile_matches_scalar_oracle(packets):
    for method in ("sh_packet", "sh_byte", "sh_syn"):
        got, want = _profile_stream(packets, method), oracle._profile_stream(packets, method)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.multiplicity, want.multiplicity)


def test_samplers_match_scalar_oracle_on_a_generated_trace():
    packets, _ = generate_trace(SyntheticTraceConfig(
        num_flows=3000, max_flow_len=200, tcp_fraction=0.6, extra_syn_prob=0.2,
        byte_len_model=(40, 1500), seed=17))
    rows = list(packets)
    for method, p in (("packet", 0.3), ("sh_packet", 0.01), ("sh_byte", 1e-5), ("sh_syn", 0.2)):
        config = SamplerConfig(method, p, seed=9)
        held = sample_packets(packets, config)
        assert list(held) == oracle.sample_packets(rows, config)
        assert list(resample_as_packet_sample(held, 0.2, 4)) == (
            oracle.resample_as_packet_sample(list(held), 0.2, 4))
        profile = _profile_stream(packets, method)
        assert np.array_equal(profile.weights, oracle._profile_stream(rows, method).weights)
