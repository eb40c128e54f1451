import numpy as np
import pytest

from deepwkb.density import DEFAULT_MIN_COUNT, DensityHistogram, GridSpec, select_collocation
from deepwkb.models import make_benchmark
from deepwkb.simulate import SimConfig, simulate_ensemble


def test_grid_invariants():
    with pytest.raises(ValueError):
        GridSpec((0.0,), (0.0,), (10,))
    with pytest.raises(ValueError):
        GridSpec((0.0,), (1.0,), (0,))
    g = GridSpec((0.0, -1.0), (1.0, 1.0), (10, 20))
    assert g.bin_volume == pytest.approx(0.1 * 0.1)
    assert g.n_cells == 200


def counts_at(hist, points):
    """The counts of the bins holding ``points`` (0 off the grid)."""
    return hist.counts_at_flat(hist.grid.flat_indices(points)[0])


def u_hat(hist, point):
    """Empirical density N0 / (h N) at the bin holding ``point``."""
    return counts_at(hist, np.atleast_2d(point))[0] / (hist.grid.bin_volume * hist.total)


def test_density_definition():
    # 1000 samples, 100 in one bin of volume 0.01 -> u_hat = 10
    g = GridSpec((0.0,), (1.0,), (100,))
    hist = DensityHistogram(g, epsilon=0.1)
    hist.add_batch(np.full((100, 1), 0.135))       # bin 13
    hist.add_batch(np.full((900, 1), 55.0))        # off grid: total only
    assert hist.total == 1000
    assert counts_at(hist, np.array([[0.135]]))[0] == 100
    assert u_hat(hist, [0.135]) == pytest.approx(10.0)


def test_boundary_tie_break_lower_index():
    g = GridSpec((0.0,), (1.0,), (10,))
    hist = DensityHistogram(g, epsilon=0.1)
    hist.add_batch(np.array([[0.2]]))   # shared edge of bins 1 and 2
    hist.add_batch(np.array([[0.0]]))   # grid lower edge: first bin
    hist.add_batch(np.array([[1.0]]))   # grid upper edge: last bin
    flat, cnt = hist.occupied()
    assert dict(zip(flat.tolist(), cnt.tolist())) == {0: 1, 1: 1, 9: 1}


def test_upper_edge_where_the_bin_count_rounds_up():
    # (1.4 - -2.9) / ((1.4 - -2.9) / 7) rounds to 7.000000000000001, yet the
    # upper edge belongs to the last bin, as in any other grid.
    g = GridSpec((-2.9,), (1.4,), (7,))
    assert (1.4 - g.lower_arr[0]) / g.widths[0] > 7
    hist = DensityHistogram(g, epsilon=0.1)
    assert counts_at(hist, np.array([[1.4]])).tolist() == [0]
    hist.add_batch(np.array([[1.4], [1.3], [-2.9]]))
    flat, cnt = hist.occupied()
    assert dict(zip(flat.tolist(), cnt.tolist())) == {0: 1, 6: 2}
    assert counts_at(hist, np.array([[1.4], [1.3], [1.5]])).tolist() == [2, 2, 0]


def test_points_far_off_the_grid_count_in_the_total_only():
    # (1e300 - 0) / 0.25 lies far beyond int64: no bin, and no overflow;
    # NaN and +-inf rows have no bin either, and cast without a warning.
    hist = DensityHistogram(GridSpec((0.0,), (1.0,), (4,)), epsilon=0.1)
    hist.add_batch(np.array([[1e300], [-3e154], [0.1], [np.nan], [np.inf], [-np.inf]]))
    assert hist.total == 6
    flat, cnt = hist.occupied()
    assert flat.tolist() == [0] and cnt.tolist() == [1]


def test_empty_histogram():
    g = GridSpec((0.0,), (1.0,), (4,))
    hist = DensityHistogram(g, epsilon=0.1)
    assert counts_at(hist, np.array([[0.5]]))[0] == 0 and hist.total == 0
    flat, cnt = hist.occupied()
    assert flat.size == 0 and cnt.size == 0


def test_insufficient_flag_and_outside_error():
    # The count floor separates 19 from 20 samples; off-grid points hold none.
    g = GridSpec((0.0,), (1.0,), (10,))
    hist = DensityHistogram(g, epsilon=0.1)
    hist.add_batch(np.full((19, 1), 0.35))
    assert counts_at(hist, np.array([[0.35]]))[0] < DEFAULT_MIN_COUNT
    hist.add_batch(np.array([[0.35]]))
    assert counts_at(hist, np.array([[0.35]]))[0] >= DEFAULT_MIN_COUNT
    flat, inside = g.flat_indices(np.array([[1.5]]))
    assert not inside[0] and flat[0] == -1
    assert counts_at(hist, np.array([[1.5]]))[0] == 0


def test_unit_density_example():
    g = GridSpec((0.0,), (1.0,), (10000,))  # h = 1e-4
    hist = DensityHistogram(g, epsilon=0.1)
    hist.add_batch(np.full((100, 1), 0.00005))
    hist.total = 10**6  # remaining samples landed elsewhere
    assert u_hat(hist, [0.00005]) == pytest.approx(1.0)


def test_chunked_batches_match_one_batch(rng):
    g = GridSpec((-1.0, -1.0), (1.0, 1.0), (8, 8))
    samples = rng.normal(0, 0.8, size=(5000, 2))
    whole = DensityHistogram(g, epsilon=0.2)
    whole.add_batch(samples)
    chunked = DensityHistogram(g, epsilon=0.2)
    for i in range(3):
        chunked.add_batch(samples[i::3])
    assert chunked.total == whole.total
    f1, c1 = chunked.occupied()
    f2, c2 = whole.occupied()
    assert np.array_equal(f1, f2) and np.array_equal(c1, c2)
    # conservation: binned count equals the independently counted inside samples
    inside = np.all((samples >= -1.0) & (samples <= 1.0), axis=1).sum()
    assert chunked.binned_count == inside
    assert chunked.total == len(samples)


def test_sparse_storage_for_high_dimensions(rng):
    g = GridSpec((-1.0,) * 3, (1.0,) * 3, (64, 64, 64))
    hist = DensityHistogram(g, epsilon=0.3)
    assert hist._dense is None  # n >= 3 goes sparse
    pts = rng.normal(0, 0.4, size=(2000, 3))
    hist.add_batch(pts)
    inside = np.all(np.abs(pts) <= 1.0, axis=1).sum()
    assert hist.binned_count == inside
    assert counts_at(hist, pts[:5]).min() >= 1


def test_histogram_file_round_trip(tmp_path, rng):
    for bins in [(32,), (16, 16), (8, 8, 8)]:
        g = GridSpec((-1.0,) * len(bins), (1.0,) * len(bins), bins)
        hist = DensityHistogram(g, epsilon=0.17)
        hist.add_batch(rng.normal(0, 0.5, size=(3000, len(bins))))
        path = tmp_path / f"h{len(bins)}.dwkbhist"
        hist.to_file(path)
        back = DensityHistogram.from_file(path)
        assert back.grid == hist.grid and back.epsilon == hist.epsilon
        assert back.total == hist.total
        fa, ca = hist.occupied()
        fb, cb = back.occupied()
        assert np.array_equal(fa, fb) and np.array_equal(ca, cb)


def test_riemann_sum_approaches_one():
    sys_ = make_benchmark("ou1d")
    g = GridSpec((-2.0,), (2.0,), (128,))
    hist = DensityHistogram(g, epsilon=0.25)
    cfg = SimConfig(epsilon=0.25, dt=0.02, total_time=500.0, n_traj=40,
                    sample_interval=0.2, seed=5, domain=(np.array([-2.0]), np.array([2.0])))
    simulate_ensemble(sys_, cfg, hist.add_batch)
    _, counts = hist.occupied()
    riemann = counts.sum() / hist.total  # sum over bins of u_hat * h
    assert 0.99 <= riemann <= 1.0


def _two_level_histograms(rng):
    g = GridSpec((-2.0,), (2.0,), (64,))
    hists = []
    for eps, scale in [(0.1, 0.22), (0.4, 0.45)]:
        h = DensityHistogram(g, eps)
        h.add_batch(rng.normal(0, scale, size=(20000, 1)))
        hists.append(h)
    return g, hists


def test_select_collocation_composition(rng):
    g, hists = _two_level_histograms(rng)
    points = select_collocation(g, hists, 40, traj_fraction=0.5, seed=9)
    assert points.shape == (40, 1)
    # points snapped to centers and unique
    centers = g.centers(g.flat_indices(points)[0])
    assert np.allclose(centers, points)
    assert len(np.unique(points.round(12))) == 40
    # trajectory half (the first round(40 * 0.5) rows) concentrates where
    # the top-noise data lives
    traj = np.abs(points[:20, 0])
    unif = np.abs(points[20:, 0])
    assert traj.mean() < unif.mean()


def test_select_collocation_degenerate_fraction(rng):
    g, hists = _two_level_histograms(rng)
    points = select_collocation(g, hists, 30, traj_fraction=0.0, seed=1)
    # every point is a uniform draw: the histogram counts do not matter
    unrelated = select_collocation(g, [DensityHistogram(g, 0.4)], 30, traj_fraction=0.0, seed=1)
    assert points.shape == (30, 1)
    assert np.array_equal(points, unrelated)


def test_select_collocation_errors(rng):
    g, hists = _two_level_histograms(rng)
    empty = DensityHistogram(g, 0.9)
    with pytest.raises(ValueError, match="occupied"):
        select_collocation(g, hists[:1] + [empty], 10, traj_fraction=1.0, seed=0)
    with pytest.raises(ValueError, match="occupied"):
        select_collocation(g, hists, 2 * g.n_cells, traj_fraction=1.0, seed=0)
