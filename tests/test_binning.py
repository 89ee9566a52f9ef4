from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from flowinv.binning import (
    DEFAULT_RATIO,
    bin_histogram,
    bin_mass,
    ccdf,
    make_bins,
    ratio_for_bins_per_decade,
)
from flowinv.distributions import FlowLengthDistribution


def test_make_bins_doubling():
    assert make_bins(8, 2.0) == [1, 2, 4, 8, 16]


def test_make_bins_minimal():
    assert make_bins(1, 2.0) == [1, 2]
    assert make_bins(1, 1.0001) == [1, 2]


def test_make_bins_small_ratio_steps_by_one_then_jumps():
    bounds = make_bins(40, 1.1)
    assert bounds[:15] == list(range(1, 16))
    assert bounds[15] == 17  # first boundary where rounding exceeds the +1 floor
    assert all(b > a for a, b in zip(bounds, bounds[1:]))


def test_make_bins_ratio_roughly_constant_for_large_boundaries():
    bounds = make_bins(100_000, DEFAULT_RATIO)
    ratios = [b / a for a, b in zip(bounds, bounds[1:]) if a >= 100]
    assert max(abs(r - DEFAULT_RATIO) for r in ratios) < 0.01


def test_make_bins_rejects_bad_ratio():
    with pytest.raises(ValueError):
        make_bins(10, 1.0)
    with pytest.raises(ValueError):
        make_bins(10, 0.5)
    with pytest.raises(ValueError):
        make_bins(0, 2.0)
    for ratio in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            make_bins(10, ratio)


def test_bins_per_decade_must_give_a_finite_ratio():
    # 0.001 overflowed in 10.0 ** 1000, 1e-320 gave an infinite ratio
    for bad in (0.001, 1e-320, 1 / 308.1, 0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="bins_per_decade must be finite"):
            ratio_for_bins_per_decade(bad)
    assert ratio_for_bins_per_decade(1 / 300) == 10.0**300
    assert ratio_for_bins_per_decade(10) == 10.0**0.1


def test_bin_histogram_worked_example():
    binning = bin_histogram({1: 3, 2: 1, 3: 1}, [1, 2, 4])
    assert binning.averages == (Fraction(3), Fraction(1))
    assert binning.widths == (1, 2)


def test_bin_histogram_empty_counts():
    binning = bin_histogram({}, [1, 2, 4, 8])
    assert binning.averages == (Fraction(0), Fraction(0), Fraction(0))


def test_bin_histogram_single_bin_average():
    binning = bin_histogram({1: 5, 6: 5}, [1, 10])
    assert binning.averages == (Fraction(10, 9),)


def test_bin_histogram_rejects_out_of_range_lengths():
    with pytest.raises(ValueError, match="extend the bins"):
        bin_histogram({4: 1}, [1, 2, 4])
    with pytest.raises(ValueError):
        bin_histogram({0: 1}, [1, 2, 4])
    with pytest.raises(ValueError, match="invalid flow length"):
        bin_histogram({1.5: 2}, [1, 2, 4])
    for bad in ({1: -3, 2: 1}, {1: float("nan")}, {2: float("inf")}):
        with pytest.raises(ValueError, match="negative or non-finite count"):
            bin_histogram(bad, [1, 2, 4])
    # ccdf validates a histogram the same way, and also needs positive mass
    # and a plain vector as a probability vector
    for bad in ({1: 0, 3: 0}, {2: -1, 3: 2}, {1.5: 2}, {},
                [float("nan"), 2.0], [-1.0, 2.0], [0.5, 0.6], []):
        with pytest.raises(ValueError):
            ccdf(bad)


def test_mass_conservation_is_exact():
    rng = np.random.default_rng(42)
    for _ in range(50):
        max_len = int(rng.integers(1, 500))
        lengths = rng.integers(1, max_len + 1, size=rng.integers(1, 400))
        counts = Counter(int(v) for v in lengths)
        bounds = make_bins(max_len, ratio_for_bins_per_decade(rng.integers(2, 15)))
        binning = bin_histogram(counts, bounds)
        total = sum(avg * w for avg, w in zip(binning.averages, binning.widths))
        assert total == sum(counts.values())


def test_refinement_preserves_per_bin_mass():
    rng = np.random.default_rng(5)
    counts = Counter(int(v) for v in rng.integers(1, 200, size=300))
    coarse = make_bins(200, 2.0)
    # refine by inserting midpoints where the bin is wide enough
    fine = sorted(
        set(coarse) | {(lo + hi) // 2 for lo, hi in zip(coarse, coarse[1:]) if hi - lo > 1}
    )
    cb = bin_histogram(counts, coarse)
    fb = bin_histogram(counts, fine)
    fine_edges = list(fine)
    for k, (lo, hi) in enumerate(zip(coarse, coarse[1:])):
        coarse_mass = cb.averages[k] * (hi - lo)
        fine_mass = sum(
            fb.averages[i] * (fine_edges[i + 1] - fine_edges[i])
            for i in range(len(fine_edges) - 1)
            if lo <= fine_edges[i] and fine_edges[i + 1] <= hi
        )
        assert fine_mass == coarse_mass


def test_bin_mass_sums_within_bins():
    values = np.array([0.5, 0.25, 0.125, 0.125])
    out = bin_mass(values, [1, 2, 4, 8])
    assert out.tolist() == [0.5, 0.375, 0.125]
    with pytest.raises(ValueError):
        bin_mass(np.ones(8), [1, 2, 4, 8])


def test_bin_mass_rejects_vectors_that_are_not_1d():
    # a 2-d vector used to be summed across its rows
    for values in (np.array([[0.5, 0.1], [0.5, 0.2]]), np.array(0.5), np.ones((1, 3))):
        with pytest.raises(ValueError, match="1-d"):
            bin_mass(values, [1, 2, 4])


def test_ccdf_two_point_law():
    assert ccdf(FlowLengthDistribution([0.5, 0.5])) == [(1, 0.5), (2, 0.0)]


def test_ccdf_point_mass():
    dist = FlowLengthDistribution([0, 0, 0, 0, 1.0])
    values = dict(ccdf(dist))
    assert values[4] == 1.0 and values[5] == 0.0


def test_ccdf_histogram_example():
    got = ccdf({1: 2, 2: 1, 4: 1})
    assert got == [(1, 0.5), (2, 0.25), (3, 0.25), (4, 0.0)]


def test_ccdf_monotone_and_bounded():
    rng = np.random.default_rng(8)
    for _ in range(30):
        probs = rng.dirichlet(np.ones(int(rng.integers(1, 60))))
        values = [v for _, v in ccdf(FlowLengthDistribution(probs / probs.sum()))]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0


def test_plot_extents_offset_by_half():
    binning = bin_histogram({1: 1}, [1, 2, 4])
    assert binning.plot_extents() == [(0.5, 1.5), (1.5, 3.5)]
