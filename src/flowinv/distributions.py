"""Probability vectors over flow lengths measured in packets.

Index convention: ``probs[i]`` is the probability of a flow of exactly
``i + 1`` packets.  Zero-length flows never appear in these vectors; the
sampling operators handle the unobservable zero-length outcome internally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

# Tolerance on the sum-to-one invariant for stored probability vectors.
SUM_TOLERANCE = 1e-12


def _as_prob_vector(probs, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(probs, dtype=float)).copy()
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        return arr
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite probabilities")
    if arr.min() < 0.0:
        raise ValueError(f"{what} contains negative probabilities")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"{what} must sum to 1 within {SUM_TOLERANCE}, got {total!r}")
    return arr


def _check_rate(value: float, name: str) -> None:
    """Reject a sampling rate outside (0, 1], naming the argument."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")


def _histogram_arrays(counts: Mapping[int, int], what: str = "flow length"):
    """A length -> count histogram as (integer lengths >= 1, counts >= 0)."""
    lengths = np.array(list(counts), dtype=float)
    valid = np.isfinite(lengths) & (lengths >= 1) & (lengths == np.floor(lengths))
    if not valid.all():
        bad = list(counts)[int(np.argmin(valid))]
        raise ValueError(f"{what} histogram: invalid flow length {bad!r}")
    values = np.array(list(counts.values()), dtype=float)
    if not (np.isfinite(values) & (values >= 0.0)).all():
        raise ValueError(f"{what} histogram has a negative or non-finite count")
    return lengths.astype(np.int64), values


def _counts_to_probs(counts: Mapping[int, int], what: str = "flow length") -> np.ndarray:
    """Validate a length -> count histogram and return ``counts / total``.

    ``probs[i]`` is the share of length ``i + 1``.  Lengths must be integers
    >= 1 and counts finite and non-negative, with a positive total.
    """
    lengths, values = _histogram_arrays(counts, what)
    if lengths.size == 0:
        raise ValueError(f"{what} histogram is empty")
    vec = np.zeros(int(lengths.max()))
    vec[lengths - 1] = values
    total = vec.sum()
    if total <= 0.0:
        raise ValueError(f"{what} histogram has no mass")
    vec /= total
    vec /= vec.sum()  # a second pass pins the float sum to 1
    return vec


@dataclass(frozen=True, eq=False)
class FlowLengthDistribution:
    """Distribution of flow lengths: probs[i] = P(flow is i+1 packets long)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "probs", _as_prob_vector(self.probs, "flow length distribution")
        )

    @property
    def max_len(self) -> int:
        return len(self.probs)

    def prob(self, length: int) -> float:
        if 1 <= length <= len(self.probs):
            return float(self.probs[length - 1])
        return 0.0

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "FlowLengthDistribution":
        return cls.from_counts(Counter(lengths))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "FlowLengthDistribution":
        return cls(_counts_to_probs(counts))


@dataclass(frozen=True, eq=False)
class ObservedDistribution:
    """Distribution of sampled flow lengths, zero-length outcomes excluded.

    ``p_used`` records the per-packet (or per-byte) sampling probability the
    sample was collected with, so downstream inversion can recompute its
    normalizer from the inputs alone.
    """

    probs: np.ndarray
    p_used: float

    def __post_init__(self):
        object.__setattr__(
            self, "probs", _as_prob_vector(self.probs, "observed distribution")
        )
        _check_rate(self.p_used, "p_used")

    @property
    def max_len(self) -> int:
        return len(self.probs)

    @classmethod
    def from_lengths(cls, lengths: Iterable[int], p_used: float) -> "ObservedDistribution":
        return cls(_counts_to_probs(Counter(lengths)), p_used)


def _probs_of(data, what: str) -> np.ndarray:
    """Per-length probabilities of a distribution, a length -> count
    histogram or a non-empty probability vector."""
    if isinstance(data, (FlowLengthDistribution, ObservedDistribution)):
        probs = data.probs
    elif isinstance(data, Mapping):
        probs = _counts_to_probs(data, what)
    else:
        probs = _as_prob_vector(data, what)
    if probs.size == 0:
        raise ValueError(f"{what} is empty")
    return probs
