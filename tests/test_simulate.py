import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from deepwkb import simulate
from deepwkb.models import SdeSystem, make_benchmark
from deepwkb.simulate import SimConfig, integrate_ode, sample_attractor, simulate_ensemble

from conftest import figure8_hamiltonian


class Collector:
    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.append(batch.copy())

    def stacked(self):
        return np.concatenate(self.batches, axis=0)


def ou_config(**kw):
    base = dict(epsilon=0.5, dt=0.01, total_time=50.0, n_traj=4,
                sample_interval=0.1, seed=99,
                domain=(np.array([-6.0]), np.array([6.0])))
    base.update(kw)
    return SimConfig(**base)


def test_config_invariants():
    with pytest.raises(ValueError):
        ou_config(sample_interval=0.005).validate(1)  # dT < dt
    with pytest.raises(ValueError):
        ou_config(sample_interval=0.015).validate(1)  # dT/dt not integer
    with pytest.raises(ValueError):
        ou_config(total_time=50.003).validate(1)
    with pytest.raises(ValueError):
        ou_config(domain=(np.array([1.0]), np.array([-1.0]))).validate(1)
    with pytest.raises(ValueError):
        ou_config(escape_policy="bounce").validate(1)
    with pytest.raises(ValueError):
        ou_config(n_traj=0).validate(1)
    # non-finite spans fail with a message, not in round()
    for kw, match in ((dict(dt=float("nan")), "dt and total_time"),
                      (dict(total_time=float("inf")), "dt and total_time"),
                      (dict(sample_interval=float("inf")), "sample_interval")):
        with pytest.raises(ValueError, match=match):
            ou_config(**kw).validate(1)


def test_determinism_bitwise(ou1d):
    runs = []
    for _ in range(2):
        sink = Collector()
        simulate_ensemble(ou1d, ou_config(), sink)
        runs.append(sink.stacked())
    assert np.array_equal(runs[0], runs[1])


def test_trajectories_use_independent_streams(ou1d):
    sink = Collector()
    simulate_ensemble(ou1d, ou_config(n_traj=3, total_time=400.0, sample_interval=1.0), sink)
    stream = sink.stacked().reshape(-1, 3)  # (samples, traj)
    assert not np.allclose(stream[:, 0], stream[:, 1])
    # correlation of independent stationary streams is near zero
    c = np.corrcoef(stream.T)
    off = c[np.triu_indices(3, 1)]
    assert np.max(np.abs(off)) < 0.25


def test_seed_changes_stream(ou1d):
    a, b = Collector(), Collector()
    simulate_ensemble(ou1d, ou_config(seed=1), a)
    simulate_ensemble(ou1d, ou_config(seed=2), b)
    assert not np.array_equal(a.stacked(), b.stacked())


def test_ou_stationary_moments(ou1d):
    # Stationary law N(0, eps/2); the spec's single 10^4-time trajectory is
    # split over 10 trajectories of length 10^3 (same sample budget).
    eps = 0.5
    sink = Collector()
    cfg = ou_config(epsilon=eps, dt=0.002, total_time=1000.0, n_traj=10,
                    sample_interval=0.02, seed=42)
    summary = simulate_ensemble(ou1d, cfg, sink)
    x = sink.stacked().ravel()
    assert summary.samples_emitted == x.shape[0]
    # 3 standard errors with the lag-1 autocorrelation of the retained chain
    rho = np.exp(-cfg.sample_interval)
    n_eff = x.shape[0] * (1 - rho) / (1 + rho)
    se_mean = np.sqrt(eps / 2 / n_eff)
    se_var = eps / 2 * np.sqrt(2.0 / n_eff)
    assert abs(x.mean()) < 3 * se_mean
    assert abs(x.var() - eps / 2) < 3 * se_var


def test_zero_noise_matches_deterministic_euler(ou1d):
    cfg = ou_config(epsilon=0.0, dt=1e-3, total_time=1.0, n_traj=1,
                    sample_interval=1e-3, burn_in_fraction=0.0,
                    x0=np.array([0.5]))
    sink = Collector()
    simulate_ensemble(ou1d, cfg, sink)
    traj = sink.stacked().ravel()
    # exact Euler recursion for the linear drift
    expect = 0.5 * (1.0 - 1e-3) ** np.arange(1, traj.shape[0] + 1)
    assert np.max(np.abs(traj - expect)) < 1e-14
    # and the deterministic 4th-order flow to O(dt)
    rk = integrate_ode(ou1d, np.array([0.5]), 1e-3, 1.0).ravel()
    assert np.max(np.abs(traj - rk[1:])) < 1e-3


def test_escape_rollback_keeps_samples_inside(ou1d):
    cfg = ou_config(epsilon=2.0, total_time=200.0, n_traj=8,
                    domain=(np.array([-0.5]), np.array([0.5])),
                    escape_policy="restart_at_last_inside", seed=17)
    sink = Collector()
    summary = simulate_ensemble(ou1d, cfg, sink)
    samples = sink.stacked()
    assert summary.escapes > 0
    assert np.all((samples >= -0.5) & (samples <= 0.5))


def test_rossler_qsd_box():
    sys_ = make_benchmark("rossler")
    lo = np.array([-15.0, -15.0, -1.5])
    hi = np.array([15.0, 15.0, 15.0])
    cfg = SimConfig(epsilon=1.0, dt=0.002, total_time=400.0, n_traj=6,
                    sample_interval=0.02, seed=11, domain=(lo, hi),
                    escape_policy="restart_at_last_inside",
                    x0=np.array([0.0, -6.0, 0.0]))
    sink = Collector()
    summary = simulate_ensemble(sys_, cfg, sink)
    samples = sink.stacked()
    assert summary.escapes > 0
    assert np.all((samples >= lo) & (samples <= hi))


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_trajectory_aborts():
    # Cubic explosion: f = +x^3 from x0 = 2 diverges in a few steps.
    def drift(x):
        x = np.atleast_2d(x)
        return x**3

    bomb = SdeSystem(drift=drift,
                     drift_jacobian=lambda x: 3 * np.atleast_2d(x)[:, :, None] ** 2,
                     attractor_dim=0, sigma_constant=np.eye(1))
    cfg = SimConfig(epsilon=0.01, dt=0.5, total_time=50.0, n_traj=3,
                    sample_interval=0.5, seed=0,
                    domain=(np.array([-1e9]), np.array([1e9])),
                    x0=np.array([2.0]), burn_in_fraction=0.0)
    summary = simulate_ensemble(bomb, cfg, Collector())
    assert summary.aborted_trajectories == 3
    # x runs 2, 6, 114, 7e5, 2e17, 4e51, 3e154 and overflows on step 7;
    # steps_taken counts the six steps each row lived.
    assert summary.steps_taken == 3 * 6


def run_ladder(system, cfgs):
    sinks = [Collector() for _ in cfgs]
    return simulate_ensemble(system, cfgs, sinks), sinks


def assert_ladder_matches_single_levels(system, cfgs):
    """A K-level call emits, per level, the batches (same order, same
    bits) and the counts of K separate one-level calls."""
    summary, sinks = run_ladder(system, cfgs)
    steps = 0
    for cfg, sink, counts in zip(cfgs, sinks, summary.per_level):
        alone = Collector()
        single = simulate_ensemble(system, cfg, alone)
        assert len(sink.batches) == len(alone.batches)
        for got, want in zip(sink.batches, alone.batches):
            assert np.array_equal(got, want)
        assert counts == single.per_level[0] == {
            "samples": single.samples_emitted, "escapes": single.escapes,
            "aborted": single.aborted_trajectories}
        steps += single.steps_taken
    assert summary.steps_taken == steps
    assert summary.samples_emitted == sum(c["samples"] for c in summary.per_level)
    assert summary.escapes == sum(c["escapes"] for c in summary.per_level)
    assert summary.aborted_trajectories == sum(c["aborted"] for c in summary.per_level)
    return summary, sinks


def ou_restart_ladder():
    return [ou_config(epsilon=eps, total_time=20.0, n_traj=5, seed=seed,
                      domain=(np.array([-0.5]), np.array([0.5])),
                      escape_policy="restart_at_last_inside")
            for eps, seed in ((0.5, 3), (2.0, 5), (1.0, 4))]


def test_ladder_matches_single_levels_ou_with_escapes(ou1d):
    summary, _ = assert_ladder_matches_single_levels(ou1d, ou_restart_ladder())
    escapes = [c["escapes"] for c in summary.per_level]
    assert min(escapes) > 0 and len(set(escapes)) == 3


def figure8_ladder():
    return [SimConfig(epsilon=eps, dt=0.01, total_time=10.0, n_traj=4,
                      sample_interval=0.1, seed=seed,
                      domain=(np.array([-3.5, -2.5]), np.array([3.5, 2.5])),
                      escape_policy="restart_at_last_inside", x0=np.array([0.0, 1.0]),
                      burn_in_fraction=0.2)
            for eps, seed in ((0.05, 21), (0.2, 22), (0.1, 23))]


def test_ladder_matches_single_levels_figure8():
    sys_ = make_benchmark("figure8")
    assert sys_.dim_noise == 2
    assert_ladder_matches_single_levels(sys_, figure8_ladder())


ONE_FACE_BOX = (np.array([-6.0, -6.0]), np.array([0.3, 6.0]))


def one_face_ladder():
    # 2-d OU from the origin with standard deviations 0.35-0.71 per
    # coordinate: trajectories leave the box through its x = 0.3 face only.
    return [SimConfig(epsilon=eps, dt=0.01, total_time=20.0, n_traj=5,
                      sample_interval=0.1, seed=seed, domain=ONE_FACE_BOX,
                      escape_policy="restart_at_last_inside", x0=np.zeros(2))
            for eps, seed in ((0.25, 31), (1.0, 32), (0.5, 33))]


def test_ladder_matches_single_levels_one_face():
    # Rolled back per row against each coordinate's own bounds.
    summary, sinks = assert_ladder_matches_single_levels(make_benchmark("ou2d"),
                                                         one_face_ladder())
    assert min(c["escapes"] for c in summary.per_level) > 0
    lo, hi = ONE_FACE_BOX
    for sink in sinks:
        samples = sink.stacked()
        assert ((samples >= lo) & (samples <= hi)).all()
        assert samples[:, 0].max() > 0.25 and samples[:, 1].max() > 0.3


LADDERS = [("ou1d", ou_restart_ladder), ("figure8", figure8_ladder),
           ("ou2d", one_face_ladder)]


def assert_ladder_unchanged(monkeypatch, name, ladder, **settings):
    sys_ = make_benchmark(name)
    reference, ref_sinks = run_ladder(sys_, ladder())
    for attr, value in settings.items():
        monkeypatch.setattr(simulate, attr, value)
    summary, sinks = run_ladder(sys_, ladder())
    assert summary == reference
    for got, want in zip(sinks, ref_sinks):
        assert np.array_equal(got.stacked(), want.stacked())


@pytest.mark.parametrize("chunk", [1, 7, simulate._CHUNK_STEPS])
@pytest.mark.parametrize("name, ladder", LADDERS)
def test_results_do_not_depend_on_chunk_size(monkeypatch, chunk, name, ladder):
    # 2000 and 1000 steps: neither 7 nor the default divides them, so the
    # last chunk is short.
    assert_ladder_unchanged(monkeypatch, name, ladder, _CHUNK_STEPS=chunk)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("name, ladder", LADDERS)
def test_results_do_not_depend_on_fill_block(monkeypatch, block, name, ladder):
    # A fill block of 1 or 3 splits each worker's rows into several blocks,
    # where the default takes them in one; 7-step chunks leave a short last one.
    assert_ladder_unchanged(monkeypatch, name, ladder, _CHUNK_STEPS=7, _FILL_BLOCK=block)


def test_each_trajectory_sums_its_own_stream():
    # Zero drift and sigma = I: every retained state is x0 plus
    # sqrt(eps dt) times the running sum of its trajectory's own normals,
    # drawn from Philox on the SeedSequence(seed).spawn(n_traj) children;
    # 70 trajectories span two fill blocks and 300 steps two chunks.
    n_traj, n_steps, eps, dt, seed = 70, 300, 0.3, 0.01, 5
    x0 = np.array([0.25, -1.0])
    system = SdeSystem(drift=np.zeros_like,
                       drift_jacobian=lambda x: np.zeros((x.shape[0], 2, 2)),
                       attractor_dim=0, sigma_constant=np.eye(2))
    sink = Collector()
    simulate_ensemble(system, SimConfig(epsilon=eps, dt=dt, total_time=n_steps * dt,
                                        n_traj=n_traj, sample_interval=dt, seed=seed,
                                        domain=(np.full(2, -1e9), np.full(2, 1e9)), x0=x0,
                                        burn_in_fraction=0.0), sink)
    states = sink.stacked().reshape(n_steps, n_traj, 2)
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(n_traj)):
        normals = np.random.Generator(np.random.Philox(child)).standard_normal((n_steps, 2))
        steps = np.concatenate([x0[None], np.sqrt(eps * dt) * normals])
        assert np.array_equal(states[:, j], np.cumsum(steps, axis=0)[1:])


def test_a_sink_gets_one_batch_per_chunk(monkeypatch, ou1d):
    # 1000 steps, all sampled, in chunks of 7: 142 full chunks and one of 6 steps.
    monkeypatch.setattr(simulate, "_CHUNK_STEPS", 7)
    sink = Collector()
    simulate_ensemble(ou1d, ou_config(total_time=10.0, sample_interval=0.01,
                                      burn_in_fraction=0.0), sink)
    assert [b.shape for b in sink.batches] == [(7 * 4, 1)] * 142 + [(6 * 4, 1)]


def well_system():
    # f = x^3 - x: a well at 0 with barriers at +-1, beyond which Euler
    # steps blow up.
    def drift(x):
        x = np.atleast_2d(x)
        return x**3 - x

    return SdeSystem(drift=drift,
                     drift_jacobian=lambda x: 3 * np.atleast_2d(x)[:, :, None] ** 2 - 1,
                     attractor_dim=0, sigma_constant=np.eye(1))


def abort_ladder():
    # Only the loudest level, the middle one, crosses the barriers.
    return [SimConfig(epsilon=eps, dt=0.1, total_time=50.0, n_traj=6,
                      sample_interval=0.5, seed=seed,
                      domain=(np.array([-1e9]), np.array([1e9])),
                      x0=np.array([0.0]), burn_in_fraction=0.0)
            for eps, seed in ((0.01, 1), (3.0, 2), (0.02, 3))]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_aborts_stay_within_their_level():
    summary, sinks = assert_ladder_matches_single_levels(well_system(), abort_ladder())
    assert all(np.isfinite(sink.stacked()).all() for sink in sinks)
    aborted = [c["aborted"] for c in summary.per_level]
    assert aborted[0] == aborted[2] == 0 and aborted[1] > 0
    n_samples = 100 * 6
    assert summary.per_level[0]["samples"] == summary.per_level[2]["samples"] == n_samples
    assert summary.per_level[1]["samples"] < n_samples


def decay_system(drift):
    # A 1-d system with the given drift, which acts as -x where it does not fail.
    return SdeSystem(drift=drift,
                     drift_jacobian=lambda x: -np.ones((x.shape[0], 1, 1)),
                     attractor_dim=0, sigma_constant=np.eye(1))


def use_cores(monkeypatch, cores):
    monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)


@pytest.mark.parametrize("system, ladder", [
    (lambda: make_benchmark("ou1d"), ou_restart_ladder),
    (lambda: make_benchmark("figure8"), figure8_ladder),
    (lambda: make_benchmark("ou2d"), one_face_ladder),
    pytest.param(well_system, abort_ladder, marks=pytest.mark.filterwarnings(
        "ignore:overflow", "ignore:invalid value")),
], ids=["ou1d", "figure8", "one-face", "aborts"])
def test_results_do_not_depend_on_group_count(monkeypatch, system, ladder):
    # 1 core runs in-process; 2 and 3 split the three levels 2 + 1 and 1 + 1 + 1.
    runs = []
    for cores in (1, 2, 3):
        use_cores(monkeypatch, cores)
        runs.append(run_ladder(system(), ladder()))
        assert multiprocessing.active_children() == []
    (reference, ref_sinks), *others = runs
    for summary, sinks in others:
        assert summary == reference
        for got, want in zip(sinks, ref_sinks):
            assert len(got.batches) == len(want.batches)
            assert all(np.array_equal(a, b) for a, b in zip(got.batches, want.batches))


def test_worker_exception_keeps_its_type(monkeypatch):
    # Only the last level moves, so only the last of two groups raises.
    def drift(x):
        if np.abs(x).max() > 50.0:
            raise ValueError("left the test region")
        return -x

    system = decay_system(drift)
    cfgs = [ou_config(epsilon=eps, seed=i, total_time=500.0)
            for i, eps in enumerate((0.0, 0.0, 1e4))]
    use_cores(monkeypatch, 2)
    with pytest.raises(ValueError, match="left the test region") as info:
        run_ladder(system, cfgs)
    assert "in drift" in str(info.value.__cause__)  # the worker's traceback
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [1, 2])
def test_worker_overflow_is_an_error(monkeypatch, cores):
    # The repository's error::RuntimeWarning filter holds in the workers too.
    use_cores(monkeypatch, cores)
    with pytest.raises(RuntimeWarning, match="overflow"):
        run_ladder(well_system(), abort_ladder())
    assert multiprocessing.active_children() == []


def test_dead_worker_is_reported(monkeypatch):
    parent = os.getpid()

    def drift(x):
        if os.getpid() != parent:
            os._exit(3)
        return -x

    system = decay_system(drift)
    use_cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_ladder(system, [ou_config(), ou_config(seed=1)])
    assert multiprocessing.active_children() == []


def test_sink_failure_stops_the_workers(monkeypatch):
    class Refused(Exception):
        pass

    workers = []

    def refuse(batch):
        workers.extend(multiprocessing.active_children())
        raise Refused

    # The workers are far from done (500,000 steps each) when the first batch arrives.
    cfgs = [ou_config(epsilon=eps, seed=i, total_time=5000.0)
            for i, eps in enumerate((0.5, 1.0))]
    use_cores(monkeypatch, 2)
    with pytest.raises(Refused):
        simulate_ensemble(make_benchmark("ou1d"), cfgs, [Collector(), refuse])
    assert len(workers) == 2
    assert all(w.exitcode == -signal.SIGTERM for w in workers)
    assert multiprocessing.active_children() == []


def test_finished_children_exit_normally(monkeypatch):
    workers = []

    def collect(batch):
        workers.extend(multiprocessing.active_children())

    use_cores(monkeypatch, 2)
    simulate_ensemble(make_benchmark("ou1d"), [ou_config(), ou_config(seed=1)],
                      [collect, Collector()])
    assert len(set(workers)) == 2
    assert all(w.exitcode == 0 for w in workers)
    with simulate.call_in_child(abs, -3) as result:
        child, = multiprocessing.active_children()
        assert result() == 3
    assert child.exitcode == 0
    assert multiprocessing.active_children() == []


def test_call_in_child_result_times_out_while_the_child_runs():
    with simulate.call_in_child(time.sleep, 0.3) as result:
        with pytest.raises(TimeoutError):
            result(0)
        assert result(10.0) is None
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("field, value", [
    ("dt", 0.02), ("n_traj", 5), ("x0", np.array([0.25])),
    ("escape_policy", "restart_at_last_inside"), ("burn_in_fraction", 0.1),
    ("total_time", 40.0), ("sample_interval", 0.2),
    ("domain", (np.array([-5.0]), np.array([6.0]))),
])
def test_levels_may_differ_only_in_epsilon_and_seed(ou1d, field, value):
    cfgs = [ou_config(), ou_config(epsilon=0.7, seed=100, **{field: value})]
    with pytest.raises(ValueError, match=field):
        simulate_ensemble(ou1d, cfgs, [Collector(), Collector()])


def test_one_sink_per_level(ou1d):
    with pytest.raises(ValueError, match="sink"):
        simulate_ensemble(ou1d, [ou_config(), ou_config(seed=1)], [Collector()])


def test_integrate_ode_fixed_point():
    still = SdeSystem(drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                      drift_jacobian=lambda x: np.zeros((np.atleast_2d(x).shape[0], 2, 2)),
                      attractor_dim=0, sigma_constant=np.eye(2))
    traj = integrate_ode(still, np.array([0.3, -0.4]), 0.01, 5.0)
    assert np.array_equal(traj, np.tile([0.3, -0.4], (traj.shape[0], 1)))


def test_vdp_limit_cycle_poincare_returns():
    sys_ = make_benchmark("vdp")
    traj = integrate_ode(sys_, np.array([2.0, 0.0]), 0.002, 100.0)
    x, y = traj[:, 0], traj[:, 1]
    # upward crossings of the section x = 0 with y < 0 (the cycle crosses
    # x = 0 downward only at y > 0 in this Lienard orientation)
    hits = []
    for i in np.nonzero((x[:-1] < 0) & (x[1:] >= 0) & (y[1:] < 0))[0]:
        w = x[i] / (x[i] - x[i + 1])
        hits.append(y[i] + w * (y[i + 1] - y[i]))
    assert len(hits) >= 3
    assert abs(hits[-1] - hits[-2]) < 1e-3


def test_figure8_energy_decays():
    sys_ = make_benchmark("figure8")
    traj = integrate_ode(sys_, np.array([1.0, 0.0]), 0.002, 100.0)[::50]
    h = figure8_hamiltonian(traj)
    assert abs(h[-1]) < 1e-4
    # |H| decreasing on coarse scale after the initial transient
    coarse = np.abs(h[::100])
    assert np.all(np.diff(coarse) <= 1e-12)


@pytest.mark.filterwarnings("ignore:overflow")
def test_integrate_ode_divergence_raises():
    def drift(x):
        return np.atleast_2d(x) ** 3

    bomb = SdeSystem(drift=drift,
                     drift_jacobian=lambda x: 3 * np.atleast_2d(x)[:, :, None] ** 2,
                     attractor_dim=0, sigma_constant=np.eye(1))
    with pytest.raises(FloatingPointError):
        integrate_ode(bomb, np.array([2.0]), 0.5, 100.0)


def test_sample_attractor_ou_collapses_to_origin(ou1d):
    points = sample_attractor(ou1d, np.array([1.0]), burn_in=40.0,
                              collect_time=10.0, count=50, dt=0.01)
    assert points.shape == (50, 1)
    assert np.max(np.abs(points)) < 1e-6


def _cycle_polyline(system, x0, dt=0.001, burn=150.0, span=10.0):
    return integrate_ode(system, np.asarray(x0, dtype=float), dt, burn + span)[round(burn / dt):]


def _dist_to_polyline(points, poly):
    a, b = poly[:-1], poly[1:]
    ab = b - a
    out = np.empty(points.shape[0])
    for i, p in enumerate(points):
        t = np.clip(np.einsum("sj,sj->s", p - a, ab) / np.einsum("sj,sj->s", ab, ab), 0.0, 1.0)
        out[i] = np.min(np.linalg.norm(a + t[:, None] * ab - p, axis=1))
    return out


def test_sample_attractor_vdp_on_cycle():
    sys_ = make_benchmark("vdp")
    points = sample_attractor(sys_, np.array([2.0, 0.0]), burn_in=100.0,
                              collect_time=60.0, count=300, dt=0.005, seed=1)
    cycle = _cycle_polyline(sys_, [2.0, 0.0])
    assert np.max(_dist_to_polyline(points, cycle)) < 1e-3


def test_sample_attractor_coupled_vdp_product_structure():
    sys_ = make_benchmark("coupled_vdp")
    points = sample_attractor(sys_, np.array([2.0, 0.0, -0.5, 1.5]), burn_in=150.0,
                              collect_time=60.0, count=200, dt=0.005, seed=2)
    cycle = _cycle_polyline(make_benchmark("vdp"), [2.0, 0.0])
    for pair in (points[:, :2], points[:, 2:]):
        assert np.max(_dist_to_polyline(pair, cycle)) < 1e-3


@pytest.mark.parametrize("burn_in, collect_time", [(-5.0, 20.0), (1.0, -1.0), (1.0, 0.0),
                                                    (float("inf"), 20.0), (1.0, float("inf"))])
def test_sample_attractor_span_guard(ou1d, burn_in, collect_time):
    # A negative burn-in would draw from the last states of a shorter run.
    with pytest.raises(ValueError, match="burn_in must be at least 0 and collect_time positive"):
        sample_attractor(ou1d, np.array([0.5]), burn_in=burn_in, collect_time=collect_time,
                         count=10)


def test_sample_attractor_count_guard(ou1d):
    with pytest.raises(ValueError, match="available"):
        sample_attractor(ou1d, np.array([0.0]), burn_in=1.0, collect_time=1.0,
                         count=1000, dt=0.1)

