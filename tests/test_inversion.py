import numpy as np
import pytest

from flowinv.binning import make_bins, ratio_for_bins_per_decade
from flowinv.distributions import FlowLengthDistribution, ObservedDistribution
from flowinv.flowtable import UNBOUNDED, build_flows
from flowinv.inversion import (
    effective_packet_probability,
    inversion_to_json_dict,
    invert_sh_byte,
    invert_sh_packet,
    invert_sh_packet_pooled,
    mean_sampled_packet_len,
    pool_raw_estimates,
    read_inversion_json,
    syn_estimate,
    write_inversion_json,
)
from flowinv.report import compare
from flowinv.sampling import SamplerConfig, forward_sh_packet, start_probability
from flowinv.trace import FiveTuple, PacketRecord, SyntheticTraceConfig, generate_trace


def test_invert_worked_example():
    result = invert_sh_packet(ObservedDistribution([0.6, 0.4], 0.5), 0.5)
    assert result.normalizer == pytest.approx(0.8, abs=1e-15)
    assert np.abs(result.raw_estimates - np.array([0.5, 0.5])).max() < 1e-12
    assert result.negative_indices == []


def test_invert_single_point_mass_is_fixed_point():
    for p in (0.01, 0.4, 1.0):
        result = invert_sh_packet(ObservedDistribution([1.0], p), p)
        assert result.normalizer == pytest.approx(1.0, abs=1e-15)
        assert np.abs(result.raw_estimates - np.array([1.0])).max() < 1e-12


def test_invert_reports_negative_estimate():
    result = invert_sh_packet(ObservedDistribution([0.3, 0.7], 0.01), 0.01)
    assert result.negative_indices == [1]
    # C = 0.01 + 0.99 * 0.3 = 0.307; raw_1 = (0.3 - 0.693) / 0.307
    assert result.normalizer == pytest.approx(0.307, abs=1e-15)
    assert result.raw_estimates[0] == pytest.approx(-0.393 / 0.307, abs=1e-12)
    clamped = result.clamped_normalized.probs
    assert clamped[0] == 0.0
    assert clamped.sum() == pytest.approx(1.0, abs=1e-15)


def test_invert_rejects_bad_inputs():
    with pytest.raises(ValueError):
        invert_sh_packet(ObservedDistribution([1.0], 0.5), 0.0)
    with pytest.raises(ValueError):
        invert_sh_packet(ObservedDistribution(np.zeros(0), 0.5), 0.5)


def test_non_finite_estimates_rejected():
    for raw in ([np.inf, 0.5], [np.inf, -np.inf], [0.5, np.inf, -1.0]):
        with pytest.raises(ValueError, match="non-finite mass"):
            pool_raw_estimates(np.array(raw), [1, 2, 4], 0.1)
    # at p = 1e-17, q rounds to 1 and the normalizer is X[1]: the smallest
    # subnormal gives raw = [-inf, inf], zero gives raw = [-inf, nan, inf]
    for x in ([5e-324, 1.0], [0.0, 0.5, 0.5]):
        with pytest.raises(ValueError, match="non-finite mass"):
            invert_sh_packet(ObservedDistribution(x, 1e-17), 1e-17)


def test_round_trip_recovers_distribution():
    rng = np.random.default_rng(123)
    for _ in range(25):
        size = int(rng.integers(1, 50))
        probs = rng.dirichlet(np.ones(size))
        dist = FlowLengthDistribution(probs / probs.sum())
        for p in (0.5, 0.1, 0.01):
            observed = forward_sh_packet(dist, p)
            result = invert_sh_packet(observed, p)
            assert np.abs(result.raw_estimates - dist.probs).max() < 1e-9


def test_raw_estimates_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(200):
        size = int(rng.integers(1, 120))
        probs = rng.dirichlet(np.ones(size))
        observed = ObservedDistribution(probs / probs.sum(), 0.5)
        p = float(rng.uniform(0.001, 1.0))
        result = invert_sh_packet(observed, p)
        assert abs(result.raw_estimates.sum() - 1.0) < 1e-12


def test_pooled_matches_binned_truth_on_exact_input():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(150))
    dist = FlowLengthDistribution(probs / probs.sum())
    p = 0.05
    observed = forward_sh_packet(dist, p)
    boundaries = make_bins(150, ratio_for_bins_per_decade(10))
    pooled = invert_sh_packet_pooled(observed, p, boundaries)
    from flowinv.binning import bin_mass

    truth_bins = bin_mass(dist.probs, boundaries)
    assert np.abs(pooled.raw - truth_bins).max() < 1e-9


def test_pooled_single_bin_sums_to_one_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        size = int(rng.integers(1, 60))
        probs = rng.dirichlet(np.ones(size))
        observed = ObservedDistribution(probs / probs.sum(), 0.3)
        pooled = invert_sh_packet_pooled(observed, 0.3, [1, size + 1])
        assert pooled.raw.shape == (1,)
        assert pooled.raw[0] == pytest.approx(1.0, abs=1e-12)


def test_pooled_trailing_bins_are_zero():
    observed = ObservedDistribution([0.6, 0.4], 0.5)
    pooled = invert_sh_packet_pooled(observed, 0.5, [1, 2, 4, 8, 16])
    assert pooled.raw[2:].tolist() == [0.0, 0.0]


def test_sh_byte_reduces_to_sh_packet_at_unit_mean():
    observed = ObservedDistribution([0.55, 0.45], 0.2)
    via_byte = invert_sh_byte(observed, 0.2, 1.0)
    direct = invert_sh_packet(observed, 0.2)
    assert np.abs(via_byte.raw_estimates - direct.raw_estimates).max() < 1e-12
    assert via_byte.approximate and not direct.approximate


def test_sh_byte_effective_probability():
    p_eff = effective_packet_probability(0.001, 1500)
    assert p_eff == pytest.approx(1.0 - 0.999**1500, abs=1e-12)
    assert p_eff == pytest.approx(0.7770372, abs=1e-6)


def test_sh_byte_effective_probability_is_the_start_probability():
    key = FiveTuple(6, "10.0.0.1", 1, "10.0.0.2", 2)
    for p in (1e-300, 1e-17, 1e-9, 1e-4, 0.001, 0.3, 0.999999, 1.0):
        for nbytes in (1, 2, 3, 40, 1500, 65535):
            start = start_probability(SamplerConfig("sh_byte", p), PacketRecord(0.0, key, nbytes))
            assert effective_packet_probability(p, nbytes) == start


def test_sh_byte_consistent_with_packet_forward_model():
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(40))
    dist = FlowLengthDistribution(probs / probs.sum())
    p_byte, mean_len = 0.0005, 900.0
    p_eff = effective_packet_probability(p_byte, mean_len)
    observed = forward_sh_packet(dist, p_eff)
    result = invert_sh_byte(observed, p_byte, mean_len)
    assert np.abs(result.raw_estimates - dist.probs).max() < 1e-9
    assert result.mean_packet_len == mean_len


def test_insensitive_to_p_near_zero_on_heavy_tail():
    # outputs for q and q' with |q - q'| = 1e-3 stay within 0.01 in total
    # variation on exact heavy-tailed input
    support = np.arange(1, 201, dtype=float)
    probs = support ** -2.5
    probs /= probs.sum()
    probs /= probs.sum()
    dist = FlowLengthDistribution(probs)
    observed = forward_sh_packet(dist, 0.01)
    a = invert_sh_packet(observed, 0.01).clamped_normalized.probs
    b = invert_sh_packet(observed, 0.009).clamped_normalized.probs
    tv = 0.5 * np.abs(a - b).sum()
    assert tv <= 1e-2


def test_statistical_consistency_tv_decreases_with_sample_size():
    support = np.arange(1, 101, dtype=float)
    probs = support ** -2.5
    probs /= probs.sum()
    probs /= probs.sum()
    dist = FlowLengthDistribution(probs)
    p = 0.1
    boundaries = make_bins(100, ratio_for_bins_per_decade(10))
    cdf = np.cumsum(dist.probs)

    def tv_at(n, seed):
        rng = np.random.default_rng(seed)
        lengths = 1 + np.searchsorted(cdf, rng.random(n), side="right")
        start = rng.geometric(p, n)
        held = (lengths - start + 1)[start <= lengths]
        observed = ObservedDistribution.from_lengths(held.tolist(), p)
        pooled = invert_sh_packet_pooled(observed, p, boundaries)
        return compare(dist, pooled, boundaries).total_variation

    medians = [
        float(np.median([tv_at(n, seed) for seed in range(5)]))
        for n in (1_000, 10_000, 100_000)
    ]
    assert medians[0] >= medians[1] >= medians[2]


def test_syn_estimate_empirical_frequencies():
    packets, _ = generate_trace(
        SyntheticTraceConfig(num_flows=50, min_flow_len=3, max_flow_len=5,
                             tcp_fraction=1.0, seed=2)
    )
    flows = build_flows(packets, UNBOUNDED, SamplerConfig("sh_syn", 1.0, 0))
    est = syn_estimate(flows)
    lengths = [rec.packet_count for rec in flows.records]
    for value in set(lengths):
        assert est.prob(value) == pytest.approx(lengths.count(value) / len(lengths))


def test_syn_estimate_exact_at_p_one_without_extra_syns():
    packets, truth = generate_trace(
        SyntheticTraceConfig(num_flows=3000, max_flow_len=60, tcp_fraction=1.0,
                             extra_syn_prob=0.0, seed=15)
    )
    flows = build_flows(packets, UNBOUNDED, SamplerConfig("sh_syn", 1.0, 0))
    est = syn_estimate(flows)
    assert est.max_len == truth.max_len
    assert np.abs(est.probs - truth.probs).max() < 1e-15


def test_syn_estimate_empty_sample_warns():
    flows = build_flows([], UNBOUNDED, SamplerConfig("sh_syn", 0.5, 0))
    with pytest.warns(UserWarning, match="no TCP flows"):
        est = syn_estimate(flows)
    assert est.max_len == 0


def test_mean_sampled_packet_len():
    packets, _ = generate_trace(
        SyntheticTraceConfig(num_flows=100, max_flow_len=20, byte_len_model=(100, 200), seed=3)
    )
    flows = build_flows(packets, UNBOUNDED, SamplerConfig("always", 1.0, 0))
    direct = sum(p.byte_len for p in packets) / len(packets)
    assert mean_sampled_packet_len(flows) == pytest.approx(direct, rel=1e-12)


def test_json_round_trip(tmp_path):
    observed = ObservedDistribution([0.3, 0.7], 0.01)
    result = invert_sh_packet(observed, 0.01)
    pooled = invert_sh_packet_pooled(observed, 0.01, [1, 2, 4])
    payload = inversion_to_json_dict(result, observed, pooled, extra={"method": "sh-packet"})
    path = tmp_path / "result.json"
    write_inversion_json(path, payload)
    back = read_inversion_json(path)
    assert back["p"] == result.p
    assert back["C"] == result.normalizer
    assert back["negative_indices"] == [1]
    assert back["raw"] == [float(v) for v in result.raw_estimates]
    assert back["binned"]["boundaries"] == [1, 2, 4]
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ValueError, match="missing key"):
        read_inversion_json(bad)
