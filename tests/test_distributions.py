import numpy as np
import pytest

from flowinv.distributions import FlowLengthDistribution, ObservedDistribution
from flowinv.inversion import effective_packet_probability, invert_sh_packet
from flowinv.sampling import (
    SamplerConfig,
    forward_packet_sampling,
    forward_sh_packet,
    resample_as_packet_sample,
)


def test_valid_vector_is_stored():
    dist = FlowLengthDistribution([0.25, 0.75])
    assert dist.max_len == 2
    assert dist.prob(1) == 0.25
    assert dist.prob(2) == 0.75
    assert dist.prob(3) == 0.0
    assert dist.prob(0) == 0.0


def test_negative_probabilities_rejected():
    with pytest.raises(ValueError, match="negative"):
        FlowLengthDistribution([1.1, -0.1])


def test_non_finite_probabilities_rejected():
    for bad in ([np.nan], [0.5, np.inf], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            FlowLengthDistribution(bad)
    with pytest.raises(ValueError, match="non-finite"):
        ObservedDistribution([np.nan], 0.5)


def test_sum_must_be_one_within_tolerance():
    with pytest.raises(ValueError, match="sum to 1"):
        FlowLengthDistribution([0.5, 0.499])
    FlowLengthDistribution([0.5, 0.5 - 1e-13])  # inside the tolerance


def test_two_dimensional_input_rejected():
    with pytest.raises(ValueError, match="one-dimensional"):
        FlowLengthDistribution(np.ones((2, 2)) / 4)


def test_empty_distribution_allowed():
    dist = FlowLengthDistribution(np.zeros(0))
    assert dist.max_len == 0


def test_from_lengths_counts_exactly():
    dist = FlowLengthDistribution.from_lengths([3, 3, 5])
    assert dist.max_len == 5
    assert dist.prob(3) == pytest.approx(2 / 3)
    assert dist.prob(5) == pytest.approx(1 / 3)
    assert dist.prob(4) == 0.0


def test_from_counts_rejects_bad_lengths():
    with pytest.raises(ValueError):
        FlowLengthDistribution.from_counts({0: 3})
    with pytest.raises(ValueError):
        FlowLengthDistribution.from_counts({2: -1})
    # a length of 1.5 packets is an input error, not a flow of 1 packet
    with pytest.raises(ValueError, match="invalid flow length 1.5"):
        FlowLengthDistribution.from_lengths([1.5, 2.7])
    with pytest.raises(ValueError, match="invalid flow length 2.5"):
        ObservedDistribution.from_lengths([1, 2.5], 0.5)
    integral = FlowLengthDistribution.from_lengths(np.array([2.0, 1.0]))
    assert integral.probs.tolist() == [0.5, 0.5]


def test_from_counts_normalizes_large_supports():
    rng = np.random.default_rng(0)
    counts = {int(k): int(v) for k, v in enumerate(rng.integers(0, 50, 9999), start=1) if v}
    dist = FlowLengthDistribution.from_counts(counts)
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


def test_observed_requires_valid_p():
    with pytest.raises(ValueError, match="p_used"):
        ObservedDistribution([1.0], 0.0)
    with pytest.raises(ValueError, match="p_used"):
        ObservedDistribution([1.0], 1.5)
    obs = ObservedDistribution.from_lengths([1, 2, 2], 0.25)
    assert obs.p_used == 0.25
    assert obs.probs.tolist() == pytest.approx([1 / 3, 2 / 3])


def test_probs_are_copied_from_caller():
    source = np.array([0.5, 0.5])
    dist = FlowLengthDistribution(source)
    source[0] = 99.0
    assert dist.probs[0] == 0.5


_TRUTH = FlowLengthDistribution([0.5, 0.5])
_OBSERVED = ObservedDistribution([0.5, 0.5], 0.5)
RATE_SITES = {
    "SamplerConfig": ("p", lambda v: SamplerConfig("packet", v)),
    "ObservedDistribution": ("p_used", lambda v: ObservedDistribution([1.0], v)),
    "forward_packet_sampling": ("p", lambda v: forward_packet_sampling(_TRUTH, v)),
    "forward_sh_packet": ("p", lambda v: forward_sh_packet(_TRUTH, v)),
    "resample_as_packet_sample": ("p", lambda v: resample_as_packet_sample([], v)),
    "invert_sh_packet": ("p", lambda v: invert_sh_packet(_OBSERVED, v)),
    "effective_packet_probability": (
        "p_per_byte", lambda v: effective_packet_probability(v, 100.0)),
}


@pytest.mark.parametrize("site", sorted(RATE_SITES))
def test_every_rate_check_names_its_argument(site):
    name, call = RATE_SITES[site]
    for bad in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=rf"^{name} must be in \(0, 1\], got {bad}$"):
            call(bad)
    call(1.0)
