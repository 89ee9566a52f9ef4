"""Recover the flow-length distribution from sample-and-hold observations.

Under sample-and-hold by packet with start probability p (write q = 1 - p),
a flow of j packets is observed with length i <= j with probability
p * q**(j-i).  Solving that relation for the original probabilities gives
the per-length estimator

    estimate[i] = (X[i] - q * X[i+1]) / (1 - q + q * X[1])

where X is the observed distribution and the denominator is a pure
normalizer.  The estimator relies on differences of neighbouring observed
probabilities, so noisy input can make individual estimates negative; those
are reported, never hidden, and a clamped-to-zero renormalized variant is
computed alongside.  Pooling estimates over logarithmic bins before
clamping reduces (but need not eliminate) the negativity.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .binning import bin_mass
from .distributions import FlowLengthDistribution, ObservedDistribution, _as_prob_vector, _check_rate
from .flowtable import FlowSet
from .sampling import _start_chance
from .trace import TCP


@dataclass(frozen=True, eq=False)
class InversionResult:
    """Raw per-length estimates plus the clamped, renormalized variant.

    ``raw_estimates[i]`` estimates the probability of length i+1 and may be
    negative; ``negative_indices`` lists the 1-based lengths where it is.
    ``normalizer`` is 1 - q + q*X[1], recomputable from the inputs.
    """

    raw_estimates: np.ndarray
    clamped_normalized: FlowLengthDistribution
    normalizer: float
    negative_indices: list[int]
    p: float
    approximate: bool = False
    mean_packet_len: float | None = None


def invert_sh_packet(observed: ObservedDistribution, p: float) -> InversionResult:
    """Invert sample-and-hold (by packet) observations.

    The observed probability just past the support is taken as zero.  The
    raw estimates always sum to 1 (an algebraic identity); negativity shows
    up whenever X[i+1] > X[i] by enough, which the result reports.
    """
    _check_rate(p, "p")
    x = observed.probs
    if x.size == 0:
        raise ValueError("cannot invert an empty observed distribution")
    q = 1.0 - p
    normalizer = 1.0 - q + q * float(x[0])
    shifted = np.concatenate((x[1:], [0.0]))
    with np.errstate(all="ignore"):  # a zero or subnormal normalizer: inf or nan
        raw = (x - q * shifted) / normalizer
    if not np.isfinite(raw).all():
        raise ValueError(f"raw estimates carry non-finite mass (normalizer {normalizer})")
    negative = [int(i) + 1 for i in np.flatnonzero(raw < 0.0)]
    return InversionResult(
        raw_estimates=raw,
        clamped_normalized=FlowLengthDistribution(_clamp_renormalize(raw)),
        normalizer=normalizer,
        negative_indices=negative,
        p=p,
    )


def _clamp_renormalize(raw: np.ndarray) -> np.ndarray:
    """Set negative estimates to zero and rescale the rest to sum to 1."""
    clamped = np.clip(raw, 0.0, None)
    total = clamped.sum()
    if not total > 0.0:
        raise ValueError("estimates carry no positive mass to renormalize")
    if not np.isfinite(total):
        raise ValueError("estimates carry non-finite mass; cannot renormalize")
    clamped /= total
    return clamped


@dataclass(frozen=True, eq=False)
class PooledInversion:
    """Per-bin sums of the raw estimates, raw and clamped-normalized."""

    boundaries: tuple
    raw: np.ndarray
    clamped: np.ndarray
    p: float


def pool_raw_estimates(
    raw_estimates: np.ndarray, boundaries: Sequence[int], p: float
) -> PooledInversion:
    """Pool per-length raw estimates over bins, clamping after the pooling."""
    raw = bin_mass(np.asarray(raw_estimates, dtype=float), boundaries)
    return PooledInversion(tuple(boundaries), raw, _clamp_renormalize(raw), p)


def invert_sh_packet_pooled(
    observed: ObservedDistribution, p: float, boundaries: Sequence[int]
) -> PooledInversion:
    """Invert, then pool the raw estimates over logarithmic bins.

    Pooling estimates the probability that a flow length lies in a bin
    rather than at an exact value, which trades resolution for stability.
    Bins beyond the observed support estimate zero.
    """
    result = invert_sh_packet(observed, p)
    return pool_raw_estimates(result.raw_estimates, boundaries, p)


def effective_packet_probability(p_per_byte: float, mean_packet_len: float) -> float:
    """Start probability for a packet of the mean byte length."""
    _check_rate(p_per_byte, "p_per_byte")
    if mean_packet_len < 1:
        raise ValueError(f"mean_packet_len must be >= 1, got {mean_packet_len}")
    return _start_chance(p_per_byte, mean_packet_len)


def invert_sh_byte(
    observed: ObservedDistribution, p_per_byte: float, mean_packet_len: float
) -> InversionResult:
    """Approximately invert sample-and-hold (by byte) observations.

    No exact inversion is known for the byte-based variant; this treats the
    data as if produced by the packet-based variant whose start probability
    matches a packet of mean length.  The result is flagged approximate and
    can misbehave on short flows.
    """
    p_eff = effective_packet_probability(p_per_byte, mean_packet_len)
    return replace(
        invert_sh_packet(observed, p_eff),
        approximate=True,
        mean_packet_len=float(mean_packet_len),
    )


def syn_estimate(flows: FlowSet) -> FlowLengthDistribution:
    """Empirical length distribution of SYN-sampled flows, used as-is.

    SYN-started holds approximate flow sampling, so no inversion is applied.
    Only TCP flows can be sampled this way; the estimate says nothing about
    other protocols.
    """
    lengths = [
        rec.packet_count for rec in flows.records if rec.key.protocol == TCP
    ]
    if not lengths:
        warnings.warn("no TCP flows in the sample; returning an empty estimate")
        return FlowLengthDistribution(np.zeros(0))
    return FlowLengthDistribution.from_lengths(lengths)


def mean_sampled_packet_len(flows: FlowSet) -> float:
    """Arithmetic mean byte length of the sampled packets."""
    packets = sum(rec.packet_count for rec in flows.records)
    if packets == 0:
        raise ValueError("no sampled packets to average")
    return sum(rec.byte_count for rec in flows.records) / packets


# ---------------------------------------------------------------------------
# JSON serialization


def inversion_to_json_dict(
    result: InversionResult,
    observed: ObservedDistribution | None = None,
    pooled: PooledInversion | None = None,
    extra: dict | None = None,
) -> dict:
    payload = {
        "p": result.p,
        "C": result.normalizer,
        "raw": [float(v) for v in result.raw_estimates],
        "clamped": [float(v) for v in result.clamped_normalized.probs],
        "negative_indices": list(result.negative_indices),
        "approximate": result.approximate,
    }
    if result.mean_packet_len is not None:
        payload["mean_packet_len"] = result.mean_packet_len
    if observed is not None:
        payload["observed"] = [float(v) for v in observed.probs]
    if pooled is not None:
        payload["binned"] = {
            "boundaries": list(pooled.boundaries),
            "raw": [float(v) for v in pooled.raw],
            "clamped": [float(v) for v in pooled.clamped],
        }
    if extra:
        payload.update(extra)
    return payload


def write_inversion_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_inversion_json(path) -> dict:
    """Read an inversion JSON, checking what ``compare`` reads: ``p`` in
    (0, 1]; ``raw`` and ``clamped`` 1-d lists of finite numbers, read as
    floats; ``observed``, if there, a probability vector; integer
    ``negative_indices``.  A failure is a ValueError naming the file."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: inversion JSON must be an object")
    for key in ("p", "C", "raw", "clamped", "negative_indices"):
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r} in inversion JSON")
    try:
        if not _is_number(payload["p"]):
            raise ValueError(f"p must be a number, got {payload['p']!r}")
        _check_rate(payload["p"], "p")
        for key in ("raw", "clamped", "observed"):
            values = payload.get(key, [])
            if not isinstance(values, list) or not all(map(_is_number, values)):
                raise ValueError(f"{key} must be 1-d: a list of numbers")
            if key in payload:
                payload[key] = [float(v) for v in values]
            if key != "observed" and not all(map(math.isfinite, payload[key])):
                raise ValueError(f"{key} carries non-finite mass")
        if "observed" in payload:
            _as_prob_vector(payload["observed"], "sampled")
        if not (isinstance(payload["negative_indices"], list) and all(
                isinstance(i, int) and not isinstance(i, bool) for i in payload["negative_indices"])):
            raise ValueError("negative_indices must be a list of ints")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return payload


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
