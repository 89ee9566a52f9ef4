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

from .binning import _tail_sums
from .distributions import FlowLengthDistribution, ObservedDistribution
from .distributions import _check_rate, _counts_to_probs
from .trace import _SYN, PacketColumns, PacketRecord, _as_columns

METHODS = ("packet", "sh_packet", "sh_byte", "sh_syn", "always")

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


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
        _check_rate(self.p, "p")


ALWAYS = SamplerConfig("always")


def _uniforms(seed: int, index: np.ndarray) -> np.ndarray:
    """SplitMix64 output stream: uniform in [0, 1) keyed by (seed, index),
    one draw per entry of ``index``; every operand is a uint64, so numpy
    1.x and 2.x wrap the arithmetic alike."""
    z = (np.asarray(index, dtype=np.uint64) + np.uint64(1)) * _GOLDEN + np.uint64(seed & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def _start_weights(method: str, packets: PacketColumns) -> np.ndarray:
    """Chances each packet carries to start a hold: one per packet, one per
    byte for ``sh_byte``, and one per SYN for ``sh_syn``."""
    if method == "sh_byte":
        return packets.byte_len.astype(np.int64)
    if method == "sh_syn":
        return (packets.flags & _SYN).astype(np.int64) // _SYN
    return np.ones(len(packets), dtype=np.int64)


def _start_chance(p: float, w: float) -> float:
    """1 - (1-p)**w: the chance that any of w start chances, each p, is taken."""
    if w == 0:
        return 0.0
    if w == 1 or p == 1.0:
        return p  # log1p(-1) is undefined at p = 1
    return -math.expm1(w * math.log1p(-p))


def _start_chances(config: SamplerConfig, packets: PacketColumns) -> np.ndarray:
    """Each packet's probability to start a hold on an untracked flow, with
    ``_start_chance`` evaluated once per distinct weight."""
    if config.method == "always":
        return np.ones(len(packets))
    weights, which = np.unique(_start_weights(config.method, packets), return_inverse=True)
    chances = np.array([_start_chance(config.p, w) for w in weights.tolist()], dtype=float)
    return chances[which]


def start_probability(config: SamplerConfig, packet: PacketRecord) -> float:
    """Probability that this packet starts a hold on an untracked flow.

    A packet with w start chances starts a hold with probability
    1 - (1-p)**w; for ``packet`` it is the probability of keeping it.
    """
    return float(_start_chances(config, _as_columns([packet]))[0])


def _start_mask(config: SamplerConfig, packets: PacketColumns, index: np.ndarray) -> np.ndarray:
    """Which packets start a hold (for ``packet``: are kept), packet i
    drawing at stream index ``index[i]``.

    The caller admits packets of a held key without asking.
    """
    return _uniforms(config.seed, index) < _start_chances(config, packets)


def _holds(config: SamplerConfig) -> bool:
    """Hold rule: every method but ``packet`` keeps a key until the next export."""
    return config.method != "packet"


def _grouped(key_id: np.ndarray, weights: np.ndarray):
    """Stable sort by key: the sort order, and along it each packet's sum of
    ``weights`` over its key's packets up to and including it."""
    order = np.argsort(key_id, kind="stable")
    w = np.asarray(weights, dtype=np.int64)[order]
    run = np.cumsum(w)
    keys = key_id[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    # weights are >= 0, so the sum before each key's first packet only grows
    run -= np.maximum.accumulate(np.where(head, run - w, 0))
    return order, run


def _within_key(key_id: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each packet's running sum of ``weights`` over its key, in stream order."""
    order, run = _grouped(key_id, weights)
    out = np.empty_like(run)
    out[order] = run
    return out


def sample_packets(
    packets: Iterable[PacketRecord], config: SamplerConfig
) -> PacketColumns:
    """Apply a sampling strategy to a stream, returning the kept packets.

    Hold state persists for the rest of the stream once a flow is started
    (record splitting on idle gaps is the flow table's business and does not
    change which packets are kept).
    """
    packets = _as_columns(packets)
    starts = _start_mask(config, packets, np.arange(len(packets)))
    if _holds(config):
        return packets.take(_within_key(packets.key_id, starts) > 0)
    return packets.take(starts)


# ---------------------------------------------------------------------------
# Exact forward operators (oracles for the samplers)


def _observed(kept: np.ndarray, p: float, max_len: int | None) -> ObservedDistribution:
    """The law of per-length kept mass: conditioned on at least one kept
    packet, truncated to ``max_len`` and tagged with its rate ``p``."""
    probs = kept / kept.sum()
    if max_len is not None and max_len < len(probs):
        lost = float(probs[max_len:].sum())
        if lost >= 1e-12:
            warnings.warn(
                f"truncation to {max_len} discards {lost:.3e} probability mass",
                TruncationWarning,
                stacklevel=3,
            )
        probs = probs[:max_len] / probs[:max_len].sum()
    return ObservedDistribution(probs, p)


def forward_packet_sampling(
    dist: FlowLengthDistribution, p: float, max_len: int | None = None
) -> ObservedDistribution:
    """Exact law of sampled flow lengths under independent packet sampling.

    A flow of j packets yields k sampled packets with binomial(j, p)
    probability; flows with zero sampled packets are unobservable, so the
    result is conditioned on at least one packet being kept.
    """
    _check_rate(p, "p")
    probs = dist.probs
    m = len(probs)
    q = 1.0 - p
    # G(q + p*z), G(z) = sum_j probs[j-1] * z**j, by Horner's rule: nothing cancels
    law = np.zeros(m + 1)
    for k in range(1, m + 1):
        law[0] += probs[m - k]
        law[1 : k + 1] = q * law[1 : k + 1] + p * law[:k]
        law[0] *= q
    return _observed(law[1:], p, max_len)


def forward_sh_packet(
    dist: FlowLengthDistribution, p: float, max_len: int | None = None
) -> ObservedDistribution:
    """Exact law of sampled flow lengths under sample-and-hold by packet.

    A flow of j packets is first sampled at each packet with probability p,
    then held, so it is observed with length i in [1, j] with probability
    p * (1-p)**(j-i), and missed entirely with probability (1-p)**j.  The
    result is conditioned on the flow being observed.
    """
    _check_rate(p, "p")
    probs = dist.probs
    m = len(probs)
    q = 1.0 - p
    # tail[i] = sum_{j >= i} q**(j-i) * probs[j], built backwards
    tail = np.zeros(m + 1)
    acc = 0.0
    for i in range(m, 0, -1):
        acc = probs[i - 1] + q * acc
        tail[i] = acc
    return _observed(p * tail[1:], p, max_len)


# ---------------------------------------------------------------------------
# Sampling-rate calibration


@dataclass(frozen=True)
class _PilotProfile:
    """Hold-start chances per flow position, extracted once from a pilot.

    ``weights[i]`` counts one method's chances (packets, bytes or SYNs) up to
    and including position i, which stands for ``multiplicity[i]`` packets.
    """

    weights: np.ndarray
    multiplicity: np.ndarray


def _profile_stream(packets: Iterable[PacketRecord], method: str) -> _PilotProfile:
    packets = _as_columns(packets)
    weights = _within_key(packets.key_id, _start_weights(method, packets))
    return _PilotProfile(weights.astype(float), np.ones(len(weights)))


def _profile_histogram(counts: Mapping[int, int]) -> _PilotProfile:
    """Profile of a flow-length histogram: position k holds P(L >= k) packets."""
    probs = _counts_to_probs(counts, "pilot")
    at_least = probs + _tail_sums(probs)
    return _PilotProfile(np.arange(1.0, len(probs) + 1), at_least)


def _kept_fraction(profile: _PilotProfile, u: float) -> tuple[float, float]:
    """Expected kept-packet fraction at u = -log(1 - p), and its slope in u.

    Packet k of a flow is kept iff a hold started at or before k: with
    probability 1 - exp(-u * w(k)), w(k) counting the start chances so far.
    """
    weights, multiplicity = profile.weights, profile.multiplicity
    fraction = (multiplicity * -np.expm1(-u * weights)).sum()
    slope = (multiplicity * weights * np.exp(-u * weights)).sum()
    return float(fraction / multiplicity.sum()), float(slope / multiplicity.sum())


def calibrate_rate(pilot, method: str, target_fraction: float) -> float:
    """Find p so the expected kept-packet fraction equals ``target_fraction``.

    ``pilot`` is either a packet stream or a flow-length histogram (the
    histogram form suffices for the ``packet`` and ``sh_packet`` methods;
    byte- and SYN-based calibration need the stream).  The fraction rises
    and is concave in u = -log(1 - p), so Newton's method from u = 0 climbs
    to the root without overshooting it; raises ValueError when the target
    exceeds the fraction attainable at p = 1.

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
    weights, multiplicity = profile.weights, profile.multiplicity
    if not weights.size:
        raise ValueError("empty pilot stream")
    # at p = 1 every position with a start chance is kept
    attainable = float(multiplicity[weights > 0].sum() / multiplicity.sum())
    if target_fraction == attainable:
        return 1.0
    if target_fraction > attainable:
        raise ValueError(
            f"target fraction {target_fraction} unattainable with {method}: "
            f"maximum expected fraction is {attainable:.6g}"
        )
    u, (fraction, slope) = 0.0, _kept_fraction(profile, 0.0)
    while fraction < target_fraction and slope > 0.0:
        step = u + (target_fraction - fraction) / slope
        if step == u:
            break
        u = step
        fraction, slope = _kept_fraction(profile, u)
    return -math.expm1(-u)


# ---------------------------------------------------------------------------
# Resampling a held stream into a packet sample


def resample_as_packet_sample(
    packets: Sequence[PacketRecord], p: float, seed: int = 0
) -> PacketColumns:
    """Thin a sample-and-hold (by packet) stream into a plain packet sample.

    The first kept packet of each flow was the sampled start and is always
    kept; every later packet of that flow is kept independently with
    probability p, which reproduces the law of independent packet sampling
    at the same rate over the held flows.
    """
    _check_rate(p, "p")
    packets = _as_columns(packets)
    first = _within_key(packets.key_id, np.ones(len(packets))) == 1
    return packets.take(first | (_uniforms(seed, np.arange(len(packets))) < p))
