from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from flowinv.binning import make_bins
from flowinv.distributions import FlowLengthDistribution, ObservedDistribution
from flowinv.inversion import invert_sh_packet_pooled, pool_raw_estimates
from flowinv.report import compare, emit_plot_data, load_report


def test_identical_inputs_give_zero_metrics():
    dist = FlowLengthDistribution([0.25, 0.25, 0.5])
    report = compare(dist, dist, [1, 2, 4])
    assert report.total_variation == 0.0
    assert report.ccdf_max_gap == 0.0


def test_disjoint_point_masses_in_separate_bins():
    a = {1: 10}
    b = {10: 3}
    report = compare(a, b, [1, 2, 4, 8, 16])
    assert report.total_variation == 1.0


def test_worked_total_variation_single_length_bins():
    report = compare(
        FlowLengthDistribution([0.5, 0.5]),
        FlowLengthDistribution([0.8, 0.2]),
        [1, 2, 3],
    )
    assert report.total_variation == pytest.approx(0.3, abs=1e-15)
    assert report.ccdf_max_gap == pytest.approx(0.3, abs=1e-15)


def test_metrics_are_symmetric():
    rng = np.random.default_rng(2)
    a = rng.dirichlet(np.ones(40))
    b = rng.dirichlet(np.ones(40))
    a, b = a / a.sum(), b / b.sum()
    bounds = make_bins(40, 1.5)
    r1 = compare(FlowLengthDistribution(a), FlowLengthDistribution(b), bounds)
    r2 = compare(FlowLengthDistribution(b), FlowLengthDistribution(a), bounds)
    assert r1.total_variation == r2.total_variation
    assert r1.ccdf_max_gap == r2.ccdf_max_gap


def test_pooled_estimate_requires_matching_bins():
    observed = ObservedDistribution([0.6, 0.4], 0.5)
    pooled = invert_sh_packet_pooled(observed, 0.5, [1, 2, 4])
    with pytest.raises(ValueError, match="bin mismatch"):
        compare({1: 1, 2: 1}, pooled, [1, 2, 3, 4])
    report = compare({1: 1, 2: 1}, pooled, [1, 2, 4])
    assert report.per_bin_table[0].inverted_raw_mass is not None


def test_bins_must_cover_support():
    with pytest.raises(ValueError, match="extend the bins"):
        compare({1: 1, 9: 1}, {1: 1}, [1, 2, 4])
    with pytest.raises(ValueError, match="true histogram has a negative"):
        compare({1: -1, 2: 3}, {1: 1}, [1, 2, 4])
    with pytest.raises(ValueError, match="estimate histogram has no mass"):
        compare({1: 1}, {1: 0, 2: 0}, [1, 2, 4])


def test_pooled_ccdf_gap_of_exact_mass_is_zero():
    rng = np.random.default_rng(20)
    lengths = np.minimum(rng.zipf(2.5, 20_000), 10_000)
    truth = dict(Counter(lengths.tolist()))
    bounds = make_bins(max(truth))
    exact = pool_raw_estimates(FlowLengthDistribution.from_counts(truth).probs, bounds, 1.0)
    report = compare(truth, exact, bounds)
    assert report.total_variation <= 1e-12
    assert report.ccdf_max_gap <= 1e-12


def test_per_bin_table_columns():
    truth = {1: 6, 2: 3, 3: 1}
    estimate = FlowLengthDistribution([0.5, 0.3, 0.2])
    sampled = FlowLengthDistribution([0.4, 0.4, 0.2])
    report = compare(truth, estimate, [1, 2, 4], sampled=sampled,
                     estimate_raw=np.array([0.55, 0.25, 0.2]))
    row = report.per_bin_table[0]
    assert row.bin_lo == 1 and row.bin_hi == 2
    assert row.true_mass == pytest.approx(0.6)
    assert row.sampled_mass == pytest.approx(0.4)
    assert row.inverted_raw_mass == pytest.approx(0.55)
    assert row.inverted_clamped_mass == pytest.approx(0.5)


def test_sampled_vector_must_be_probabilities():
    truth = {1: 1, 2: 1}
    estimate = FlowLengthDistribution([0.5, 0.5])
    for bad in ([float("nan"), 2.0], [-0.5, 1.5], [0.5, 0.6], []):
        with pytest.raises(ValueError, match="sampled"):
            compare(truth, estimate, [1, 2, 4], sampled=bad)
    # the estimate and the truth go through the same check
    for bad in ([float("nan"), 2.0], [0.7, 0.7], [-1.0, 2.0]):
        with pytest.raises(ValueError, match="estimate"):
            compare(truth, bad, [1, 2, 4])
        with pytest.raises(ValueError, match="true"):
            compare(bad, estimate, [1, 2, 4])
    report = compare(truth, estimate, [1, 2, 4], sampled=[0.25, 0.75])
    assert [row.sampled_mass for row in report.per_bin_table] == [0.25, 0.75]


def test_emit_round_trips_and_is_deterministic(tmp_path):
    truth = {1: 5, 2: 3, 4: 2}
    estimate = FlowLengthDistribution([0.45, 0.35, 0.0, 0.2])
    report = compare(truth, estimate, [1, 2, 4, 8], metadata={"p": 0.1, "method": "sh-packet"})
    path = tmp_path / "report.csv"
    csv_path, sidecar = emit_plot_data(report, path)
    first = (Path(csv_path).read_bytes(), Path(sidecar).read_bytes())
    emit_plot_data(report, path)
    second = (Path(csv_path).read_bytes(), Path(sidecar).read_bytes())
    assert first == second

    back = load_report(path)
    assert back.total_variation == report.total_variation
    assert back.ccdf_max_gap == report.ccdf_max_gap
    assert back.boundaries == report.boundaries
    assert back.per_bin_table == report.per_bin_table
    assert back.metadata == report.metadata


def test_emit_empty_table_writes_header_only(tmp_path):
    from flowinv.report import ComparisonReport

    report = ComparisonReport(0.0, 0.0, [], [], {})
    csv_path, _ = emit_plot_data(report, tmp_path / "empty.csv")
    assert Path(csv_path).read_text() == "bin_lo,bin_hi,true,sampled,inverted_raw,inverted_clamped\n"


def test_emit_surfaces_io_errors_with_path(tmp_path):
    truth = {1: 1}
    report = compare(truth, FlowLengthDistribution([1.0]), [1, 2])
    missing = tmp_path / "nodir" / "report.csv"
    with pytest.raises(OSError):
        emit_plot_data(report, missing)
