"""Scalar reference samplers: the per-packet loops ``flowinv.sampling`` ran
before it worked on packet columns.

Verbatim copies of SplitMix64's ``_uniform``, the per-packet start rule
(``_start_weight``, ``start_probability``, ``_starts``), the pilot profile
``_profile_stream`` and the ``sample_packets`` and
``resample_as_packet_sample`` loops.  Tests hold the columnar code to them
bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from flowinv.distributions import _check_rate
from flowinv.sampling import SamplerConfig, _holds, _PilotProfile, _start_chance
from flowinv.trace import PacketRecord

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
    return _start_chance(config.p, _start_weight(config.method, packet))


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


def _profile_stream(packets: Sequence[PacketRecord], method: str) -> _PilotProfile:
    seen: dict = {}
    weights = np.empty(len(packets))
    for i, pkt in enumerate(packets):
        key = pkt.key
        w = seen.get(key, 0) + _start_weight(method, pkt)
        seen[key] = w
        weights[i] = w
    return _PilotProfile(weights, np.ones(len(packets)))


def resample_as_packet_sample(
    packets: Sequence[PacketRecord], p: float, seed: int = 0
) -> list[PacketRecord]:
    """Thin a sample-and-hold (by packet) stream into a plain packet sample.

    The first kept packet of each flow was the sampled start and is always
    kept; every later packet of that flow is kept independently with
    probability p, which reproduces the law of independent packet sampling
    at the same rate over the held flows.
    """
    _check_rate(p, "p")
    seen: set = set()
    out: list[PacketRecord] = []
    for index, pkt in enumerate(packets):
        if pkt.key not in seen:
            seen.add(pkt.key)
            out.append(pkt)
        elif _uniform(seed, index) < p:
            out.append(pkt)
    return out
