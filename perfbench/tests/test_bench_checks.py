"""The benchmark's own checks pass on exact oracles and fail on injected
wrong outputs; the tracer's self times and the metric list hold.

    python3 -m pytest perfbench/tests -q
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import instrument
import workloads
from deepwkb import net
from deepwkb.density import DensityHistogram, GridSpec
from deepwkb.models import make_benchmark
from deepwkb.pipeline import fp_residual_grid
from deepwkb.simulate import SimConfig, simulate_ensemble
from deepwkb.train_v import TrainedQp, qp_loss
from deepwkb.train_z import z_loss
from tracer import Tracer

ROOT = Path(checks.__file__).resolve().parent.parent


@pytest.fixture
def regression_draw():
    """Calibrated OU estimates: oracle plus SE times N(0, 1)."""
    rng = np.random.default_rng(5)
    x = np.linspace(-0.8, 0.8, 200)
    se_v = 0.004 + 0.01 * x**2
    se_z = 0.01 + 0.05 * x**2
    v_hat = x**2 + se_v * rng.standard_normal(200)
    log_z = np.log(workloads.OU_ORACLE_Z0) + se_z * rng.standard_normal(200)
    return x, v_hat, se_v, log_z, se_z


def test_t_statistics_pass_on_oracle(regression_draw):
    x, v_hat, se_v, log_z, se_z = regression_draw
    assert checks.t_statistics(v_hat, x**2, se_v, "V") == []
    assert checks.t_statistics(log_z, np.log(workloads.OU_ORACLE_Z0), se_z, "log Z0") == []


def test_t_statistics_fail_on_scaled_v(regression_draw):
    x, v_hat, se_v, _, _ = regression_draw
    assert checks.t_statistics(1.05 * v_hat, x**2, se_v, "V")


def test_t_statistics_fail_on_shifted_log_z0(regression_draw):
    _, _, _, log_z, se_z = regression_draw
    assert checks.t_statistics(log_z + 3.0 * se_z, np.log(workloads.OU_ORACLE_Z0), se_z, "log Z0")


def test_ks_recompute_matches_program_and_law():
    from deepwkb.regression import RegressionResult
    from deepwkb.validation import validate_wkb

    rss = np.random.default_rng(2).chisquare(5, size=300)
    results = [RegressionResult(point=np.zeros(1), v_hat=0.0, log_z0_hat=0.0, slope=0.0,
                                rss_plain=r, rss_rescaled=r, dof=5, used_rows=8,
                                reliable=True, se_v=1.0, se_log_z0=1.0) for r in rss]
    report = validate_wkb(results, dof=5)
    assert checks.ks_recompute(rss, 5, report.ks_statistic, report.p_value) == []
    assert checks.ks_recompute(2.0 * rss, 5, report.ks_statistic, report.p_value)


def _small_net(seed=3):
    spec = net.MlpSpec(widths=(2, 8, 8, 1), l2_lambda=1e-3)
    return net.init_params(spec, seed=seed)


def _points(n=64, seed=4):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))


def test_gradient_check_passes_on_every_loss():
    system = make_benchmark("ou2d")
    params, x = _small_net(), _points()
    trained_v = TrainedQp(params=_small_net(seed=9), alpha=0.8)
    batches = {"L1": x, "L2": (x, np.sum(x**2, axis=1)), "L3": x}
    dirs = checks.unit_directions(params.size, 3, seed=1)
    for kind, batch in batches.items():
        assert checks.directional_fd(lambda p: qp_loss(kind, p, batch, system), params, dirs) == []
        zb = batch if kind == "L3" else (x, np.full(len(x), 1 / np.pi))
        assert checks.directional_fd(lambda p: z_loss(kind, p, zb, system, trained_v),
                                     params, dirs) == []


def test_gradient_check_fails_on_perturbed_entry():
    system = make_benchmark("ou2d")
    params, x = _small_net(), _points()

    def wrong(p):
        value, grad = qp_loss("L3", p, x, system)
        grad = grad.copy()
        grad[7] += 0.01 * np.linalg.norm(grad)
        return value, grad

    dirs = checks.unit_directions(params.size, 3, seed=1)
    assert checks.directional_fd(wrong, params, dirs)


def test_l3_recompute_by_finite_differences():
    system = make_benchmark("ou2d")
    params, x = _small_net(), _points()
    g = checks.fd_gradient(lambda y: net.forward(params, y), x)
    f = system.drift(x)
    value = np.mean((np.sum(f * g, axis=1) + 0.5 * np.sum(g * g, axis=1)) ** 2)
    assert qp_loss("L3", params, x, system)[0] == pytest.approx(value, rel=1e-5)
    h = checks.fd_hessian(lambda y: net.forward(params, y), x)
    assert np.allclose(h, net.hessian_input(params, x), rtol=1e-4, atol=1e-6)


def _restart_histograms():
    system = make_benchmark("figure8")
    grid = GridSpec((-3.5, -2.5), (3.5, 2.5), (32, 32))
    cfg = SimConfig(epsilon=0.2, dt=0.01, total_time=5.0, n_traj=20, sample_interval=0.5,
                    seed=3, domain=(grid.lower_arr, grid.upper_arr),
                    escape_policy="restart_at_last_inside", x0=np.array([0.0, 1.0]),
                    burn_in_fraction=0.2)
    hist = DensityHistogram(grid, cfg.epsilon)
    summary = simulate_ensemble(system, cfg, hist.add_batch)
    per_traj = checks.retained_per_trajectory(cfg.total_time, cfg.dt, cfg.sample_interval,
                                              cfg.burn_in_fraction)
    return hist, summary, cfg.n_traj * per_traj


def test_histogram_totals_pass_and_fail_on_dropped_count():
    hist, summary, expected = _restart_histograms()
    assert summary.samples_emitted == expected
    assert checks.histogram_totals([hist], expected, [summary.aborted_trajectories], True) == []
    flat, _ = hist.occupied()
    hist._dense[flat[0]] -= 1
    assert checks.histogram_totals([hist], expected, [0], True)


def test_independent_density_and_fp_residual_match_program():
    params = _small_net()
    x = _points()
    assert np.allclose(checks.mlp_forward(params, x), net.forward(params, x),
                       rtol=1e-12, atol=1e-14)
    system = make_benchmark("ou1d")
    grid = GridSpec((-2.0,), (2.0,), (256,))
    centers = grid.centers(np.arange(256))[:, 0]
    u = (np.pi * 0.09) ** -0.5 * np.exp(-centers**2 / 0.09) * (1 + 0.1 * np.sin(5 * centers))
    _, rel = fp_residual_grid(system, u, grid, 0.09)
    mine = checks.fp_relative_residual_1d(lambda s: system.drift(s[:, None])[:, 0],
                                          u, -2.0, 2.0, 0.09)
    assert mine == pytest.approx(rel, rel=checks.RECOMPUTE_RTOL)


def test_tracer_self_time_excludes_children():
    tr = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        tr.call("child", child)
        tr.call("child", child)

    tr.call("parent", parent)
    calls, incl, own = tr.totals()["parent"]
    assert calls == 1 and tr.totals()["child"][0] == 2
    assert own == pytest.approx(incl - tr.totals()["child"][1], abs=1e-9)
    assert own >= 0.009


def test_tracer_uninstall_restores_originals():
    from deepwkb import pipeline
    before = (net.forward, pipeline.simulate_ensemble, DensityHistogram.__dict__["from_file"])
    tr = Tracer()
    instrument.install(tr)
    assert net.forward is not before[0]
    tr.uninstall()
    assert (net.forward, pipeline.simulate_ensemble,
            DensityHistogram.__dict__["from_file"]) == before


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    reported = list(instrument.per_layer_metrics(Tracer())) + \
        list(workloads.ACCURACY_METRICS) + ["trace.overhead_s"]
    assert per_layer == reported
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)



def test_exact_ou_curves_pass_and_fail_on_wrong_value():
    from deepwkb import expand
    from deepwkb.pipeline import transport_coefficients

    system = make_benchmark("ou1d")
    domain = (np.array([-2.0]), np.array([2.0]))
    seeds = expand.seed_characteristics(system, workloads.OuExact, 0.06, 4, 7, domain,
                                        rel_band=0.25)
    curves = expand.trace_curves(
        system, seeds, 1e-3, 0.3, domain, 10,
        transport=lambda x: transport_coefficients(system, workloads.OuExact, x)[1])
    assert checks.exact_ou_curves(curves, 4, 10) == []
    curves[2].states[5].v *= 1.05
    assert checks.exact_ou_curves(curves, 4, 10)
