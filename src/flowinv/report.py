"""Compare true, sampled, and inverted distributions; emit plot-ready files.

Total variation is computed on per-bin mass fractions so bins weigh by the
probability they carry, not their width.  The CCDF gap is the largest
absolute difference between the two CCDFs evaluated at every integer length
up to the larger support; for a pooled estimate, which carries only per-bin
mass, both CCDFs are evaluated at the bin boundaries only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .binning import _check_boundaries, _tail_sums, bin_mass
from .distributions import _probs_of
from .inversion import PooledInversion


@dataclass(frozen=True)
class BinRow:
    bin_lo: int
    bin_hi: int
    true_mass: float
    sampled_mass: float | None
    inverted_raw_mass: float | None
    inverted_clamped_mass: float


@dataclass
class ComparisonReport:
    total_variation: float
    ccdf_max_gap: float
    boundaries: list
    per_bin_table: list
    metadata: dict = field(default_factory=dict)


def compare(
    true_data,
    estimate,
    boundaries: Sequence[int],
    *,
    sampled=None,
    estimate_raw=None,
    metadata: dict | None = None,
) -> ComparisonReport:
    """Build a comparison report between a reference and an estimate.

    ``true_data``, ``estimate`` and ``sampled`` may each be a distribution,
    a histogram or a probability vector, which must sum to 1; ``estimate``
    may also be a PooledInversion, which must carry exactly the requested
    boundaries (bin mismatch is an error).  ``sampled`` and the raw 1-d
    vector ``estimate_raw``, which may be negative, fill the extra table
    columns when available.
    """
    _check_boundaries(boundaries)
    boundaries = list(boundaries)
    true_mass = _probs_of(true_data, "true")
    true_bins = bin_mass(true_mass, boundaries)

    if isinstance(estimate, PooledInversion):
        if list(estimate.boundaries) != boundaries:
            raise ValueError(
                f"bin mismatch: estimate pooled over {list(estimate.boundaries)}, "
                f"requested {boundaries}"
            )
        est_bins = np.asarray(estimate.clamped, dtype=float)
        raw_bins = np.asarray(estimate.raw, dtype=float)
        # a pooled estimate says nothing within a bin: compare the CCDFs
        # at the bin boundaries only
        true_tail, est_tail = _tail_sums(true_bins), _tail_sums(est_bins)
    else:
        est_mass = _probs_of(estimate, "estimate")
        est_bins = bin_mass(est_mass, boundaries)
        raw_bins = None
        if estimate_raw is not None:
            # raw estimates may be negative: only their shape is checked
            raw = np.asarray(estimate_raw, dtype=float)
            if raw.ndim != 1 or raw.size == 0:
                raise ValueError("estimate_raw must be a non-empty 1-d vector")
            raw_bins = bin_mass(raw, boundaries)
        out_len = max(len(true_mass), len(est_mass))
        true_tail = _tail_sums(np.pad(true_mass, (0, out_len - len(true_mass))))
        est_tail = _tail_sums(np.pad(est_mass, (0, out_len - len(est_mass))))

    total_variation = 0.5 * float(np.abs(true_bins - est_bins).sum())
    gap = float(np.abs(true_tail - est_tail).max())
    sampled_bins = None
    if sampled is not None:
        sampled_bins = bin_mass(_probs_of(sampled, "sampled"), boundaries)

    table = [
        BinRow(
            bin_lo=lo,
            bin_hi=hi,
            true_mass=float(true_bins[k]),
            sampled_mass=None if sampled_bins is None else float(sampled_bins[k]),
            inverted_raw_mass=None if raw_bins is None else float(raw_bins[k]),
            inverted_clamped_mass=float(est_bins[k]),
        )
        for k, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]))
    ]
    return ComparisonReport(
        total_variation=total_variation,
        ccdf_max_gap=gap,
        boundaries=boundaries,
        per_bin_table=table,
        metadata=dict(metadata or {}),
    )


REPORT_CSV_HEADER = [
    "bin_lo",
    "bin_hi",
    "true",
    "sampled",
    "inverted_raw",
    "inverted_clamped",
]


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def emit_plot_data(report: ComparisonReport, path) -> tuple[str, str]:
    """Write the per-bin table as CSV plus a JSON metadata sidecar.

    Returns the two paths written.  Output bytes are deterministic for
    identical reports.
    """
    path = str(path)
    sidecar = _sidecar_path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_CSV_HEADER)
        for row in report.per_bin_table:
            writer.writerow(
                [
                    row.bin_lo,
                    row.bin_hi,
                    repr(row.true_mass),
                    _fmt(row.sampled_mass),
                    _fmt(row.inverted_raw_mass),
                    repr(row.inverted_clamped_mass),
                ]
            )
    payload = {
        "total_variation": report.total_variation,
        "ccdf_max_gap": report.ccdf_max_gap,
        "boundaries": list(report.boundaries),
        "metadata": report.metadata,
    }
    with open(sidecar, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path, sidecar


def _sidecar_path(path: str) -> str:
    stem = path[: -len(".csv")] if path.endswith(".csv") else path
    return stem + ".meta.json"


def load_report(path) -> ComparisonReport:
    """Re-read a report written by :func:`emit_plot_data`."""
    path = str(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != REPORT_CSV_HEADER:
            raise ValueError(f"{path}: unexpected report header {header}")
        for row in reader:
            rows.append(
                BinRow(
                    bin_lo=int(row[0]),
                    bin_hi=int(row[1]),
                    true_mass=float(row[2]),
                    sampled_mass=float(row[3]) if row[3] else None,
                    inverted_raw_mass=float(row[4]) if row[4] else None,
                    inverted_clamped_mass=float(row[5]),
                )
            )
    with open(_sidecar_path(path)) as fh:
        payload = json.load(fh)
    return ComparisonReport(
        total_variation=payload["total_variation"],
        ccdf_max_gap=payload["ccdf_max_gap"],
        boundaries=list(payload["boundaries"]),
        per_bin_table=rows,
        metadata=payload.get("metadata", {}),
    )
