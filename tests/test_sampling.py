import math
from collections import Counter

import numpy as np
import pytest
from scipy import optimize

from flowinv.distributions import FlowLengthDistribution
from flowinv.sampling import (
    ALWAYS,
    SamplerConfig,
    TruncationWarning,
    _starts,
    calibrate_rate,
    forward_packet_sampling,
    forward_sh_packet,
    resample_as_packet_sample,
    sample_packets,
    start_probability,
)
from flowinv.trace import FiveTuple, PacketRecord, SyntheticTraceConfig, generate_trace

TCP_KEY = FiveTuple(6, "10.0.0.1", 80, "10.0.0.2", 1000)
UDP_KEY = FiveTuple(17, "10.0.0.1", 53, "10.0.0.2", 1000)


def _pkt(nbytes=100, syn=False, key=TCP_KEY, t=0.0):
    return PacketRecord(t, key, nbytes, frozenset("S") if syn else frozenset())


# ---------------------------------------------------------------------------
# hold-start rule / start probabilities


def test_sh_byte_single_byte_reduces_to_p():
    # one byte carries one start chance: exactly p, as for sh_packet
    for p in (0.5, 0.3, 1e-3):
        assert start_probability(SamplerConfig("sh_byte", p), _pkt(nbytes=1)) == p


def test_sh_byte_start_probability_worked_value():
    # direct evaluation of 1 - (1 - 0.001)**1500
    got = start_probability(SamplerConfig("sh_byte", 0.001), _pkt(nbytes=1500))
    assert got == pytest.approx(1.0 - 0.999**1500, abs=1e-15)
    assert got == pytest.approx(0.7770372, abs=1e-6)


def test_sh_byte_start_probability_increases_with_bytes():
    config = SamplerConfig("sh_byte", 0.01)
    probs = [start_probability(config, _pkt(nbytes=b)) for b in (1, 2, 10, 100, 1500)]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_sh_byte_at_p_one_samples_every_packet():
    config = SamplerConfig("sh_byte", 1.0)
    assert start_probability(config, _pkt(nbytes=1500)) == 1.0
    packets = [_pkt(nbytes=40), _pkt(key=UDP_KEY, nbytes=1500)]
    assert sample_packets(packets, config) == packets


def test_sh_syn_never_starts_without_syn():
    config = SamplerConfig("sh_syn", 1.0, seed=3)
    for index in range(50):
        assert not _starts(config, _pkt(key=UDP_KEY), index)
        assert not _starts(config, _pkt(syn=False), index)


@pytest.mark.parametrize("method", ["sh_packet", "sh_byte", "sh_syn"])
def test_tracked_flows_always_sampled(method):
    # one SYN opens the flow; every later packet is small and carries no SYN
    packets = [_pkt(syn=True)] + [_pkt(nbytes=40, t=float(i)) for i in range(1, 50)]
    seed = next(s for s in range(100_000)
                if _starts(SamplerConfig(method, 0.001, seed=s), packets[0], 0))
    config = SamplerConfig(method, 0.001, seed=seed)
    # the later packets would not all start a hold on their own
    assert not all(_starts(config, pkt, i) for i, pkt in enumerate(packets) if i)
    assert sample_packets(packets, config) == packets


def test_packet_method_never_tracks():
    config = SamplerConfig("packet", 0.9, seed=2)
    packets = [_pkt(t=float(i)) for i in range(200)]
    kept = sample_packets(packets, config)
    assert kept == [pkt for i, pkt in enumerate(packets) if _starts(config, pkt, i)]
    # a kept packet does not hold its key: later packets are still dropped
    assert len(kept) < len(packets) - packets.index(kept[0])


def test_decisions_replayable_and_order_independent():
    config = SamplerConfig("sh_packet", 0.25, seed=77)
    forward = [_starts(config, _pkt(), i) for i in range(500)]
    replay = [_starts(config, _pkt(), i) for i in range(500)]
    backward = [_starts(config, _pkt(), i) for i in reversed(range(500))]
    assert forward == replay
    assert forward == backward[::-1]
    assert 0 < sum(forward) < 500


def test_starts_rate_matches_p():
    config = SamplerConfig("packet", 0.3, seed=11)
    n = 20000
    kept = sum(_starts(config, _pkt(), i) for i in range(n))
    assert abs(kept / n - 0.3) < 4 * math.sqrt(0.3 * 0.7 / n)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig("bogus", 0.5)
    with pytest.raises(ValueError):
        SamplerConfig("packet", 0.0)
    with pytest.raises(ValueError):
        SamplerConfig("packet", 1.1)


# ---------------------------------------------------------------------------
# Forward operators


def test_forward_packet_sampling_worked_example():
    dist = FlowLengthDistribution([0.5, 0.5])
    out = forward_packet_sampling(dist, 0.5)
    assert np.abs(out.probs - np.array([0.8, 0.2])).max() < 1e-12


def test_forward_packet_sampling_identity_at_p_one():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(30))
    dist = FlowLengthDistribution(probs / probs.sum())
    out = forward_packet_sampling(dist, 1.0)
    assert np.abs(out.probs - dist.probs).max() < 1e-12


def test_forward_packet_sampling_point_mass_three():
    # binomial(3, 1/2) = (1/8, 3/8, 3/8, 1/8); drop the zero term
    dist = FlowLengthDistribution([0.0, 0.0, 1.0])
    out = forward_packet_sampling(dist, 0.5)
    assert np.abs(out.probs - np.array([3 / 7, 3 / 7, 1 / 7])).max() < 1e-12


def test_forward_sh_packet_worked_example():
    dist = FlowLengthDistribution([0.5, 0.5])
    out = forward_sh_packet(dist, 0.5)
    assert np.abs(out.probs - np.array([0.6, 0.4])).max() < 1e-12


def test_forward_sh_packet_identity_cases():
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(25))
    dist = FlowLengthDistribution(probs / probs.sum())
    out = forward_sh_packet(dist, 1.0)
    assert np.abs(out.probs - dist.probs).max() < 1e-12
    single = forward_sh_packet(FlowLengthDistribution([1.0]), 0.37)
    assert np.abs(single.probs - np.array([1.0])).max() < 1e-15


@pytest.mark.parametrize("p", [0.05, 0.3, 0.9, 1.0])
def test_forward_operators_sum_to_one(p):
    rng = np.random.default_rng(17)
    for _ in range(20):
        size = rng.integers(1, 80)
        probs = rng.dirichlet(np.ones(size))
        dist = FlowLengthDistribution(probs / probs.sum())
        for op in (forward_packet_sampling, forward_sh_packet):
            assert abs(op(dist, p).probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_forward_operators_match_monte_carlo(p):
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(15) * 3)
    dist = FlowLengthDistribution(probs / probs.sum())
    n = 1_000_000
    lengths = 1 + np.searchsorted(np.cumsum(dist.probs), rng.random(n), side="right")

    start = rng.geometric(p, n)
    held = (lengths - start + 1)[start <= lengths]
    counts = np.bincount(held, minlength=16)[1:16]
    expected = counts.sum() * forward_sh_packet(dist, p).probs
    sd = np.sqrt(counts.sum() * forward_sh_packet(dist, p).probs.clip(1e-12, 1))
    assert (np.abs(counts - expected) <= 4 * sd + 1).all()

    kept = rng.binomial(lengths, p)
    kept = kept[kept > 0]
    counts = np.bincount(kept, minlength=16)[1:16]
    expected = counts.sum() * forward_packet_sampling(dist, p).probs
    sd = np.sqrt(counts.sum() * forward_packet_sampling(dist, p).probs.clip(1e-12, 1))
    assert (np.abs(counts - expected) <= 4 * sd + 1).all()


def test_forward_truncation_warns_when_mass_dropped():
    dist = FlowLengthDistribution([0.25, 0.25, 0.25, 0.25])
    with pytest.warns(TruncationWarning):
        out = forward_sh_packet(dist, 0.5, max_len=2)
    assert out.max_len == 2
    assert abs(out.probs.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# sample_packets / hold semantics


def test_sample_packets_always_keeps_everything():
    packets, _ = generate_trace(SyntheticTraceConfig(num_flows=50, max_flow_len=20, seed=1))
    assert sample_packets(packets, ALWAYS) == packets


def test_sample_packets_holds_flows_to_stream_end():
    packets = [_pkt(t=float(i)) for i in range(10)]
    config = SamplerConfig("sh_packet", 0.5, seed=4)
    kept = sample_packets(packets, config)
    # once held, every later packet of the flow is kept
    if kept:
        first = packets.index(kept[0])
        assert kept == packets[first:]


def test_sample_packets_matches_flow_table_admissions():
    from flowinv.flowtable import UNBOUNDED, build_flows

    packets, _ = generate_trace(
        SyntheticTraceConfig(num_flows=200, max_flow_len=40, tcp_fraction=0.6, seed=19)
    )
    for method, p in (("packet", 0.2), ("sh_packet", 0.1), ("sh_byte", 0.0005), ("sh_syn", 0.7)):
        config = SamplerConfig(method, p, seed=3)
        kept = sample_packets(packets, config)
        flows = build_flows(packets, UNBOUNDED, config)
        assert len(kept) == flows.packets_admitted


# ---------------------------------------------------------------------------
# Calibration


def test_calibrate_packet_method_is_exact():
    assert calibrate_rate({1: 10}, "packet", 0.01) == 0.01


def test_calibrate_sh_packet_uniform_hundred_flows():
    # independent oracle: E[kept packets per flow] = sum_i i * p * q**(100 - i)
    def expected(p):
        q = 1.0 - p
        return sum(i * p * q ** (100 - i) for i in range(1, 101))

    oracle = optimize.brentq(lambda p: expected(p) / 100 - 0.01, 1e-9, 1.0, xtol=1e-15)
    got = calibrate_rate({100: 1000}, "sh_packet", 0.01)
    assert got == pytest.approx(oracle, rel=1e-9)
    assert got == pytest.approx(2e-4, rel=0.05)


def test_calibrate_realized_fraction_close_to_target():
    packets, _ = generate_trace(
        SyntheticTraceConfig(num_flows=20_000, max_flow_len=50, tcp_fraction=0.9,
                             byte_len_model=(40, 1500), mean_interarrival=0.01, seed=23)
    )
    for method in ("sh_packet", "sh_byte", "sh_syn"):
        p = calibrate_rate(packets, method, 0.02)
        kept = sample_packets(packets, SamplerConfig(method, p, seed=6))
        assert abs(len(kept) / len(packets) - 0.02) / 0.02 < 0.2


def test_expected_fraction_monotone_in_p():
    packets, _ = generate_trace(
        SyntheticTraceConfig(num_flows=2000, max_flow_len=40, tcp_fraction=0.8,
                             byte_len_model=(40, 1500), seed=29)
    )
    from flowinv.sampling import _expected_fraction, _profile_stream

    for method in ("sh_packet", "sh_byte", "sh_syn"):
        profile = _profile_stream(packets, method)
        fractions = [_expected_fraction(profile, p)
                     for p in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))


def test_calibrate_unattainable_target_errors():
    udp_only, _ = generate_trace(
        SyntheticTraceConfig(num_flows=100, max_flow_len=20, tcp_fraction=0.0, seed=1)
    )
    with pytest.raises(ValueError, match="unattainable"):
        calibrate_rate(udp_only, "sh_syn", 0.5)


def test_calibrate_rejects_unknown_method():
    packets, _ = generate_trace(SyntheticTraceConfig(num_flows=20, max_flow_len=5, seed=2))
    for pilot in (packets, {10: 5}):
        for method in ("bogus", "always"):
            with pytest.raises(ValueError, match="cannot calibrate"):
                calibrate_rate(pilot, method, 0.1)
    # rejected before the pilot is read: these would fail to profile
    with pytest.raises(ValueError, match="cannot calibrate"):
        calibrate_rate([None], "bogus", 0.1)
    with pytest.raises(ValueError, match="cannot calibrate"):
        calibrate_rate({1.5: 2}, "bogus", 0.1)


def test_calibrate_histogram_only_for_packet_lengths():
    with pytest.raises(ValueError, match="pilot packet stream"):
        calibrate_rate({10: 5}, "sh_byte", 0.01)
    with pytest.raises(ValueError):
        calibrate_rate({10: 5}, "sh_packet", 1.5)
    # malformed histogram pilots: non-integer or zero length, no mass,
    # negative count
    for bad in ({1.5: 2, 3: 1}, {5: 0}, {2: -1, 3: 5}, {0: 3, 2: 1}):
        with pytest.raises(ValueError, match="pilot histogram"):
            calibrate_rate(bad, "sh_packet", 0.01)


# ---------------------------------------------------------------------------
# Resampling


def test_resample_identity_at_p_one():
    packets, _ = generate_trace(SyntheticTraceConfig(num_flows=40, max_flow_len=15, seed=9))
    kept = sample_packets(packets, SamplerConfig("sh_packet", 0.5, seed=2))
    assert resample_as_packet_sample(kept, 1.0) == kept


def test_resample_always_keeps_first_packet_per_flow():
    packets, _ = generate_trace(SyntheticTraceConfig(num_flows=60, max_flow_len=25, seed=13))
    kept = sample_packets(packets, SamplerConfig("sh_packet", 0.3, seed=8))
    thinned = resample_as_packet_sample(kept, 0.05, seed=50)
    firsts = {}
    for pkt in kept:
        firsts.setdefault(pkt.key, pkt)
    out_keys = {pkt.key for pkt in thinned}
    assert set(firsts) == out_keys
    for pkt in firsts.values():
        assert pkt in thinned


def test_resample_expected_length():
    # held run of n packets -> expected kept 1 + (n - 1) * p
    n, p, trials = 40, 0.25, 400
    total = 0
    for trial in range(trials):
        key = FiveTuple(6, "10.0.0.9", trial % 60000, "10.0.0.8", 80)
        run = [PacketRecord(float(i), key, 100) for i in range(n)]
        total += len(resample_as_packet_sample(run, p, seed=trial))
    mean = total / trials
    expect = 1 + (n - 1) * p
    sd = math.sqrt((n - 1) * p * (1 - p) / trials)
    assert abs(mean - expect) < 4 * sd


def test_resample_distribution_matches_direct_packet_sampling():
    # thinning an sh_packet sample reproduces the packet-sampling law
    packets, truth = generate_trace(
        SyntheticTraceConfig(num_flows=30_000, min_flow_len=4, max_flow_len=12, seed=31)
    )
    p = 0.5
    held = sample_packets(packets, SamplerConfig("sh_packet", p, seed=1))
    thinned = resample_as_packet_sample(held, p, seed=2)
    lengths = Counter()
    for pkt in thinned:
        lengths[pkt.key] += 1
    counts = np.bincount(list(lengths.values()), minlength=13)[1:13]
    # conditional law of kept-lengths for flows held from their first packet
    # differs from plain packet sampling only through the start position;
    # with start at packet g, kept ~ 1 + Binomial(L - g, p).  Build the exact
    # law by enumeration as an independent oracle.
    from scipy import stats

    law = np.zeros(13)
    for length, prob in enumerate(truth.probs, start=1):
        if prob == 0:
            continue
        for g in range(1, length + 1):
            start_p = p * (1 - p) ** (g - 1)
            rest = stats.binom.pmf(np.arange(length - g + 1), length - g, p)
            law[1 + np.arange(length - g + 1)] += prob * start_p * rest
    law = law[1:13] / law[1:13].sum()
    expected = counts.sum() * law
    sd = np.sqrt(counts.sum() * law * (1 - law))
    assert (np.abs(counts - expected) <= 4 * sd + 1).all()
