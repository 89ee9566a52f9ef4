"""Logarithmic binning of flow-length histograms and CCDF computation.

Bin boundaries are integers 1 = i0 < i1 < ... < in chosen so the ratio of
consecutive boundaries approaches a target; bin k covers lengths
[i_{k-1}, i_k).  A bin's value is the average count per unit length, kept as
an exact rational so that total mass is conserved bit-for-bit.  For display
the bin extent is shifted to [i_{k-1} - 0.5, i_k - 0.5].
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .distributions import _histogram_arrays, _probs_of


def ratio_for_bins_per_decade(bins_per_decade: float) -> float:
    if bins_per_decade <= 0:
        raise ValueError("bins_per_decade must be positive")
    return 10.0 ** (1.0 / bins_per_decade)


#: Default boundary ratio: ten bins per decade.
DEFAULT_RATIO = ratio_for_bins_per_decade(10)


def make_bins(max_len: int, ratio_target: float = DEFAULT_RATIO) -> list[int]:
    """Boundary sequence 1 = i0 < i1 < ... stopping past ``max_len``.

    Each boundary is the previous one scaled by ``ratio_target`` and rounded
    half-up, floored at +1 so the sequence strictly increases.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if ratio_target <= 1.0:
        raise ValueError(f"ratio_target must exceed 1, got {ratio_target}")
    bounds = [1]
    while bounds[-1] <= max_len:
        bounds.append(max(bounds[-1] + 1, math.floor(bounds[-1] * ratio_target + 0.5)))
    return bounds


def _check_boundaries(boundaries: Sequence[int]) -> None:
    if len(boundaries) < 2 or boundaries[0] != 1:
        raise ValueError("boundaries must start at 1 and contain >= 2 entries")
    if any(nxt <= prev for prev, nxt in zip(boundaries, boundaries[1:])):
        raise ValueError("boundaries must be strictly increasing")


@dataclass(frozen=True)
class LogBinning:
    """Boundaries plus per-bin average counts (exact rationals)."""

    boundaries: tuple
    averages: tuple
    ratio_target: float | None = None

    @property
    def widths(self) -> tuple:
        return tuple(
            hi - lo for lo, hi in zip(self.boundaries, self.boundaries[1:])
        )

    def averages_as_floats(self) -> np.ndarray:
        return np.array([float(a) for a in self.averages])

    def plot_extents(self) -> list[tuple[float, float]]:
        return [
            (lo - 0.5, hi - 0.5)
            for lo, hi in zip(self.boundaries, self.boundaries[1:])
        ]


def bin_histogram(
    counts: Mapping[int, int],
    boundaries: Sequence[int],
    ratio_target: float | None = None,
) -> LogBinning:
    """Average the per-length counts over each bin.

    Every observed length must fall below the last boundary; lengths below 1
    and negative or non-finite counts are rejected.
    """
    _check_boundaries(boundaries)
    lengths, _ = _histogram_arrays(counts)
    if lengths.size and lengths.max() >= boundaries[-1]:
        raise ValueError(
            f"observed length {lengths.max()} >= final boundary {boundaries[-1]}; "
            "extend the bins"
        )
    sums = [0] * (len(boundaries) - 1)
    # rightmost bin k with boundaries[k] <= length < boundaries[k+1]
    bins = np.searchsorted(boundaries, lengths, side="right") - 1
    for k, count in zip(bins.tolist(), counts.values()):
        sums[k] += count
    averages = tuple(
        Fraction(s, hi - lo)
        for s, lo, hi in zip(sums, boundaries, boundaries[1:])
    )
    return LogBinning(tuple(boundaries), averages, ratio_target)


def bin_mass(values: np.ndarray, boundaries: Sequence[int]) -> np.ndarray:
    """Sum a 1-indexed per-length vector over each bin.

    ``values[i]`` is the value for length i+1.  Entries beyond the vector
    are treated as zero, so bins past the support sum to 0; a vector longer
    than the binned range is an error.
    """
    _check_boundaries(boundaries)
    if len(values) >= boundaries[-1]:
        raise ValueError(
            f"support {len(values)} >= final boundary {boundaries[-1]}; extend the bins"
        )
    out = np.zeros(len(boundaries) - 1)
    for k, (lo, hi) in enumerate(zip(boundaries, boundaries[1:])):
        out[k] = values[lo - 1 : min(hi - 1, len(values))].sum()
    return out


def ccdf(data) -> list[tuple[int, float]]:
    """Complementary CDF: pairs (x, P(length > x)) for x = 1 .. max length.

    Accepts a distribution object, a length -> count histogram or a
    probability vector.  The value at the maximum length is exactly 0 and
    P(length > 0) is implicitly 1.
    """
    probs = _probs_of(data, "ccdf input")
    return list(zip(range(1, len(probs) + 1), _tail_sums(probs).tolist()))


def _tail_sums(mass: np.ndarray) -> np.ndarray:
    """``tail[i]`` = sum of ``mass`` beyond index ``i``.

    Summed right to left, so the last value is exactly zero and zero padding
    at the end does not change the others.
    """
    return np.concatenate((np.cumsum(mass[::-1])[::-1][1:], [0.0]))


BINNED_CSV_HEADER = ["bin_lo", "bin_hi", "avg_count", "plot_lo", "plot_hi"]


def write_binned_csv(binning: LogBinning, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BINNED_CSV_HEADER)
        for (lo, hi), avg, (plo, phi) in zip(
            zip(binning.boundaries, binning.boundaries[1:]),
            binning.averages,
            binning.plot_extents(),
        ):
            writer.writerow([lo, hi, repr(float(avg)), repr(plo), repr(phi)])
