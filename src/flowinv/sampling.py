"""Per-packet sampling strategies and their exact distribution-level laws.

Four strategies are supported on top of the trivial ``always`` strategy used
for ground-truth runs:

* ``packet``    -- keep each packet independently with probability p.
* ``sh_packet`` -- sample-and-hold: an untracked flow starts being held with
  probability p at each of its packets; held flows are sampled in full.
* ``sh_byte``   -- as above with per-packet start probability
  1 - (1-p)**byte_len, i.e. sampling every byte with probability p.
* ``sh_syn``    -- holds may only start at SYN-flagged packets, with
  probability p.

Randomness is counter-based: the decision for packet ``i`` is a pure
function of ``(seed, i)``, so decision streams are replayable and
independent of evaluation order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import optimize, stats

from .binning import _tail_sums
from .distributions import FlowLengthDistribution, ObservedDistribution, _counts_to_probs
from .trace import PacketRecord

METHODS = ("packet", "sh_packet", "sh_byte", "sh_syn", "always")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class TruncationWarning(UserWarning):
    """A forward operator discarded tail mass above the reporting threshold."""


@dataclass(frozen=True)
class SamplerConfig:
    method: str
    p: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sampling method {self.method!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")


ALWAYS = SamplerConfig("always")


def _uniform(seed: int, index: int) -> float:
    # SplitMix64 output stream: uniform in [0, 1) keyed by (seed, index).
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return (z >> 11) * (1.0 / (1 << 53))


def _start_weight(method: str, packet: PacketRecord) -> int:
    """Chances this packet carries to start a hold: one per packet, one per
    byte for ``sh_byte``, and one per SYN for ``sh_syn``."""
    if method == "sh_byte":
        return packet.byte_len
    if method == "sh_syn":
        return 1 if "S" in packet.tcp_flags else 0
    return 1


def start_probability(config: SamplerConfig, packet: PacketRecord) -> float:
    """Probability that this packet starts a hold on an untracked flow.

    A packet with w start chances starts a hold with probability
    1 - (1-p)**w; for ``packet`` it is the probability of keeping it.
    """
    if config.method == "always":
        return 1.0
    weight = _start_weight(config.method, packet)
    if weight == 0:
        return 0.0
    if weight == 1 or config.p == 1.0:
        return config.p  # log1p(-1) is undefined at p = 1
    return -math.expm1(weight * math.log1p(-config.p))


def _starts(config: SamplerConfig, packet: PacketRecord, packet_index: int) -> bool:
    """Whether packet ``packet_index`` starts a hold (for ``packet``: is kept).

    The caller admits packets of a held key without asking.
    """
    prob = start_probability(config, packet)
    if prob >= 1.0:
        return True
    if prob <= 0.0:
        return False
    return _uniform(config.seed, packet_index) < prob


def _holds(config: SamplerConfig) -> bool:
    """Hold rule: every method but ``packet`` keeps a key until the next export."""
    return config.method != "packet"


def sample_packets(
    packets: Iterable[PacketRecord], config: SamplerConfig
) -> list[PacketRecord]:
    """Apply a sampling strategy to a stream, returning the kept packets.

    Hold state persists for the rest of the stream once a flow is started
    (record splitting on idle gaps is the flow table's business and does not
    change which packets are kept).
    """
    holds = _holds(config)
    held: set = set()
    kept: list[PacketRecord] = []
    for index, pkt in enumerate(packets):
        key = pkt.key
        if key in held:
            kept.append(pkt)
        elif _starts(config, pkt, index):
            kept.append(pkt)
            if holds:
                held.add(key)
    return kept


# ---------------------------------------------------------------------------
# Exact forward operators (oracles for the samplers)


def _apply_truncation(probs: np.ndarray, max_len: int | None) -> np.ndarray:
    if max_len is None or max_len >= len(probs):
        return probs
    lost = float(probs[max_len:].sum())
    if lost >= 1e-12:
        warnings.warn(
            f"truncation to {max_len} discards {lost:.3e} probability mass",
            TruncationWarning,
            stacklevel=3,
        )
    head = probs[:max_len]
    return head / head.sum()


def forward_packet_sampling(
    dist: FlowLengthDistribution, p: float, max_len: int | None = None
) -> ObservedDistribution:
    """Exact law of sampled flow lengths under independent packet sampling.

    A flow of j packets yields k sampled packets with binomial(j, p)
    probability; flows with zero sampled packets are unobservable, so the
    result is conditioned on at least one packet being kept.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    probs = dist.probs
    m = len(probs)
    observed = np.zeros(m + 1)
    for j in range(1, m + 1):
        if probs[j - 1] == 0.0:
            continue
        observed[: j + 1] += probs[j - 1] * stats.binom.pmf(np.arange(j + 1), j, p)
    kept = observed[1:]
    return ObservedDistribution(_apply_truncation(kept / kept.sum(), max_len), p)


def forward_sh_packet(
    dist: FlowLengthDistribution, p: float, max_len: int | None = None
) -> ObservedDistribution:
    """Exact law of sampled flow lengths under sample-and-hold by packet.

    A flow of j packets is first sampled at each packet with probability p,
    then held, so it is observed with length i in [1, j] with probability
    p * (1-p)**(j-i), and missed entirely with probability (1-p)**j.  The
    result is conditioned on the flow being observed.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    probs = dist.probs
    m = len(probs)
    q = 1.0 - p
    # tail[i] = sum_{j >= i} q**(j-i) * probs[j], built backwards
    tail = np.zeros(m + 1)
    acc = 0.0
    for i in range(m, 0, -1):
        acc = probs[i - 1] + q * acc
        tail[i] = acc
    kept = p * tail[1:]
    return ObservedDistribution(_apply_truncation(kept / kept.sum(), max_len), p)


# ---------------------------------------------------------------------------
# Sampling-rate calibration


@dataclass(frozen=True)
class _PilotProfile:
    """Hold-start chances per flow position, extracted once from a pilot.

    ``weights[i]`` counts the chances of one method (packets, bytes or SYNs)
    up to and including position i; the position stands for
    ``multiplicity[i]`` packets if given, and ``total_packets`` sums the
    packets of all positions.
    """

    total_packets: float
    weights: np.ndarray
    multiplicity: np.ndarray | None = None


def _profile_stream(packets: Sequence[PacketRecord], method: str) -> _PilotProfile:
    seen: dict = {}
    weights = np.empty(len(packets))
    for i, pkt in enumerate(packets):
        key = pkt.key
        w = seen.get(key, 0) + _start_weight(method, pkt)
        seen[key] = w
        weights[i] = w
    return _PilotProfile(len(packets), weights)


def _profile_histogram(counts: Mapping[int, int]) -> _PilotProfile:
    """Profile of a flow-length histogram: position k holds P(L >= k) packets."""
    probs = _counts_to_probs(counts, "pilot")
    at_least = probs + _tail_sums(probs)
    ordinals = np.arange(1.0, len(probs) + 1)
    return _PilotProfile(float(at_least.sum()), ordinals, at_least)


def _expected_fraction(profile: _PilotProfile, p: float) -> float:
    """Expected kept-packet fraction, exact given the pilot's flow structure.

    Packet k of a flow is kept iff a hold started at or before k, which
    happens with probability 1 - (1-p)**w(k) where w(k) counts the start
    chances seen so far.
    """
    if profile.total_packets == 0:
        raise ValueError("empty pilot stream")
    p = min(p, 1.0 - 1e-16)  # keep log1p finite; indistinguishable from 1.0
    kept = -np.expm1(profile.weights * math.log1p(-p))
    if profile.multiplicity is not None:
        kept *= profile.multiplicity
    return float(kept.sum()) / profile.total_packets


def calibrate_rate(
    pilot, method: str, target_fraction: float, *, tolerance: float = 1e-12
) -> float:
    """Find p so the expected kept-packet fraction equals ``target_fraction``.

    ``pilot`` is either a packet stream or a flow-length histogram (the
    histogram form suffices for the ``packet`` and ``sh_packet`` methods;
    byte- and SYN-based calibration need the stream).  The expected fraction
    is monotone in p for every method, so the unique root is bracketed and
    solved directly; raises ValueError when the target exceeds the fraction
    attainable at p = 1.

    On heavy-tailed traffic the hold methods concentrate on long flows, so
    the calibrated start probability typically sits orders of magnitude
    below the target packet fraction.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValueError(f"target_fraction must be in (0, 1), got {target_fraction}")
    if method == "packet":
        return target_fraction
    if method not in ("sh_packet", "sh_byte", "sh_syn"):
        raise ValueError(f"cannot calibrate method {method!r}")

    if isinstance(pilot, Mapping):
        if method != "sh_packet":
            raise ValueError(f"method {method!r} needs a pilot packet stream")
        profile = _profile_histogram(pilot)
    else:
        profile = _profile_stream(pilot, method)
    fraction = lambda p: _expected_fraction(profile, p)

    attainable = fraction(1.0)
    if attainable < target_fraction:
        raise ValueError(
            f"target fraction {target_fraction} unattainable with {method}: "
            f"maximum expected fraction is {attainable:.6g}"
        )
    return float(
        optimize.brentq(
            lambda p: fraction(p) - target_fraction,
            1e-15,
            1.0,
            xtol=tolerance,
            rtol=8.9e-16,
        )
    )


# ---------------------------------------------------------------------------
# Resampling a held stream into a packet sample


def resample_as_packet_sample(
    packets: Sequence[PacketRecord], p: float, seed: int = 0
) -> list[PacketRecord]:
    """Thin a sample-and-hold (by packet) stream into a plain packet sample.

    The first kept packet of each flow was the sampled start and is always
    kept; every later packet of that flow is kept independently with
    probability p, which reproduces the law of independent packet sampling
    at the same rate over the held flows.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    seen: set = set()
    out: list[PacketRecord] = []
    for index, pkt in enumerate(packets):
        if pkt.key not in seen:
            seen.add(pkt.key)
            out.append(pkt)
        elif _uniform(seed, index) < p:
            out.append(pkt)
    return out
