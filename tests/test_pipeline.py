import dataclasses
import json
import multiprocessing
import shutil
import signal
import time

import numpy as np
import pytest

from deepwkb import net, pipeline, regression, simulate
from deepwkb.cli import main as cli_main
from deepwkb.density import DensityHistogram, GridSpec
from deepwkb.models import make_benchmark
from deepwkb.pipeline import (STAGES, DependencyError, RunConfig, RunManifest,
                              evaluate_wkb_grid, fp_residual_grid, run_all,
                              run_stage)
from deepwkb.regression import PointData, regress_point
from deepwkb.simulate import sample_attractor
from deepwkb.train_v import QpTrainConfig


def ou_mini_config(**overrides):
    data = {
        "seed": 1234,
        "benchmark": {"name": "ou1d", "params": {}},
        "ladder": [float(e) for e in np.linspace(0.3, 0.6, 10) ** 2],
        "grid": {"lower": [-2.0], "upper": [2.0], "bins": [256]},
        "sim": {"dt": 0.04, "total_time": 1010.0, "n_traj": 200,
                "sample_interval": 2.0, "escape_policy": "none",
                "burn_in_fraction": 0.01, "x0": None},
        "attractor": {"x0": [0.5], "burn_in": 20.0, "collect_time": 20.0,
                      "count": 200, "dt": 0.01},
        "collocation": {"m_points": 220, "traj_fraction": 0.8,
                        "min_count": 20, "far_field_percentile": 95.0},
        "train_v": {"epochs": 1200, "fine_tune_epochs": 20, "residual_count": None,
                    "widths": [1, 32, 32, 1], "lr1": 3e-3, "lr2": 3e-3, "lr3": 1e-4},
        "expand": {"level": 0.06, "count": 12, "step": 1e-3, "v_max": 0.3,
                   "samples_per_curve": 10, "rel_band": 0.25, "refine_epochs": 8},
        "train_z": {"epochs": 400, "fine_tune_epochs": 10, "widths": [1, 32, 32, 1],
                    "lr1": 3e-3, "lr2": 3e-3, "lr3": 1e-4,
                    "y2_regression": 200, "y2_transport": 120, "y3": 200},
        "evaluate": {"eps": 0.09},
    }
    merged = json.loads(json.dumps(data))
    merged.update(overrides)
    return RunConfig(merged)


def test_config_round_trip(tmp_path):
    cfg = ou_mini_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg.data))
    assert RunConfig.load(path).data == cfg.data


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="train_v.epoch"):
        ou_mini_config(train_v={"epoch": 5})
    with pytest.raises(ValueError, match="unknown config key 'seeds'"):
        ou_mini_config(seeds=3)
    with pytest.raises(ValueError, match="train_z.residual_count"):
        ou_mini_config(train_z={"residual_count": 10})
    # benchmark parameters are checked by the benchmark factory itself
    cfg = ou_mini_config(benchmark={"name": "figure8", "params": {"mu": 0.5}},
                         grid={"lower": [-3.0, -2.0], "upper": [3.0, 2.0], "bins": [8, 8]})
    assert cfg["benchmark"]["params"] == {"mu": 0.5}
    with pytest.raises(ValueError, match="no parameters"):
        ou_mini_config(benchmark={"name": "ou1d", "params": {"mu": 0.5}})


# Every settable value of a run config, as a dotted path; benchmark.params
# is one value, which make_benchmark checks.
CONFIG_KEYS = """version seed ladder benchmark.name benchmark.params grid.lower grid.upper grid.bins
    sim.dt sim.total_time sim.n_traj sim.sample_interval sim.escape_policy sim.burn_in_fraction
    sim.x0 attractor.x0 attractor.burn_in attractor.collect_time attractor.count attractor.dt
    collocation.m_points collocation.traj_fraction collocation.min_count
    collocation.far_field_percentile train_v.epochs train_v.lr1 train_v.lr2 train_v.lr3
    train_v.fine_tune_epochs train_v.residual_count train_v.widths expand.level expand.count
    expand.step expand.v_max expand.samples_per_curve expand.rel_band expand.refine_epochs
    train_z.epochs train_z.lr1 train_z.lr2 train_z.lr3 train_z.fine_tune_epochs train_z.widths
    train_z.y2_regression train_z.y2_transport train_z.y3 evaluate.eps""".split()

# Former keys, now constants of validation and train_v, with their values.
CONSTANT_KEYS = {"validate.significance": 0.01, "train_v.batch_size": 128,
                 "train_v.fine_tune_factor": 0.1, "train_v.l2_lambda": 1e-3,
                 "train_v.far_field_density": 1e-6, "train_v.artificial_value": None,
                 "train_z.batch_size": 128, "train_z.fine_tune_factor": 0.1,
                 "train_z.l2_lambda": 1e-3}


def _leaf_keys(section, where=""):
    keys = []
    for key, val in section.items():
        if isinstance(val, dict) and val:
            keys += _leaf_keys(val, where + key + ".")
        else:
            keys.append(where + key)
    return keys


def test_config_keys_are_pinned():
    # A new key is a new option, to be set by some caller other than a test.
    keys = _leaf_keys(pipeline.DEFAULT_CONFIG)
    assert len(keys) == len(CONFIG_KEYS) == 48
    assert set(keys) == set(CONFIG_KEYS)
    for name, value in CONSTANT_KEYS.items():
        section, key = name.split(".")
        with pytest.raises(ValueError, match="unknown config key") as err:
            ou_mini_config(**{section: {key: value}})
        # a section that is gone is named by itself
        assert str(err.value) in (f"unknown config key {name!r}",
                                  f"unknown config key {section!r}")


def test_train_sections_default_to_the_train_config():
    cfg = RunConfig({"ladder": [0.1, 0.2, 0.3, 0.4], "grid": {"lower": [-1.0], "upper": [1.0],
                                                               "bins": [8]}})
    assert cfg.train_cfg("train_v", seed=5) == QpTrainConfig(seed=5)
    assert cfg.train_cfg("train_z", seed=6) == QpTrainConfig(seed=6)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="ladder"):
        ou_mini_config(ladder=[0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="grid"):
        ou_mini_config(grid={"lower": [-2.0, -2.0], "upper": [2.0, 2.0],
                             "bins": [16, 16]})
    with pytest.raises(ValueError, match="version"):
        RunConfig({"version": 99})


def test_stage_hash_scoping():
    a = ou_mini_config()
    b = ou_mini_config(collocation={"m_points": 999, "traj_fraction": 0.8,
                                    "min_count": 20, "far_field_percentile": 95.0})
    assert a.stage_hash("simulate") == b.stage_hash("simulate")
    assert a.stage_hash("regress") != b.stage_hash("regress")
    assert a.stage_hash("validate") != b.stage_hash("validate")  # chained


def test_dependency_order_enforced(tmp_path):
    cfg = ou_mini_config()
    manifest = RunManifest(tmp_path)
    with pytest.raises(DependencyError, match="requires"):
        run_stage("validate", cfg, manifest)
    with pytest.raises(ValueError, match="unknown stage"):
        run_stage("paint", cfg, manifest)


TINY_SIM = {"dt": 0.04, "total_time": 4.0, "n_traj": 4, "sample_interval": 0.4,
            "escape_policy": "none", "burn_in_fraction": 0.01, "x0": None}


def test_rerun_deletes_outputs_it_no_longer_writes(tmp_path):
    # Rerunning simulate with one noise level fewer must not leave the old
    # level's histogram behind for the next stages to read.
    tiny = {"sim": TINY_SIM,
            "attractor": {"x0": [0.5], "burn_in": 1.0, "collect_time": 1.0,
                          "count": 10, "dt": 0.01}}
    ladder = [0.09, 0.16, 0.25, 0.36, 0.49]
    manifest = RunManifest(tmp_path)
    run_stage("simulate", ou_mini_config(ladder=ladder, **tiny), manifest)
    assert (tmp_path / "hist_04.dwkbhist").exists()
    run_stage("simulate", ou_mini_config(ladder=ladder[:4], **tiny), manifest)
    assert not (tmp_path / "hist_04.dwkbhist").exists()
    assert (tmp_path / "hist_03.dwkbhist").exists()
    assert "hist_04.dwkbhist" not in RunManifest(tmp_path).data["stages"]["simulate"]["outputs"]


def figure8_mini_config():
    return ou_mini_config(
        benchmark={"name": "figure8", "params": {"mu": 0.5}},
        grid={"lower": [-3.5, -2.5], "upper": [3.5, 2.5], "bins": [32, 32]},
        sim=dict(TINY_SIM, escape_policy="restart_at_last_inside", x0=[0.0, 1.0]),
        attractor={"x0": [0.0, 1.0], "burn_in": 5.0, "collect_time": 5.0,
                   "count": 50, "dt": 0.01})


def use_cores(monkeypatch, cores):
    monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)


def assert_nothing_written(outdir):
    assert not (outdir / "attractor.npy").exists() and not list(outdir.glob("hist_*"))
    assert "simulate" not in RunManifest(outdir).data["stages"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("make_cfg", [lambda: ou_mini_config(sim=TINY_SIM), figure8_mini_config],
                         ids=["ou1d", "figure8"])
def test_stage_attractor_is_the_in_process_one(tmp_path, monkeypatch, make_cfg, cores):
    # The stage integrates the attractor in a forked child; its points must
    # be those of a direct call with the stage's derived seed.
    cfg = make_cfg()
    use_cores(monkeypatch, cores)
    manifest = run_stage("simulate", cfg, RunManifest(tmp_path))
    att = cfg["attractor"]
    want = sample_attractor(cfg.system(), np.asarray(att["x0"], dtype=float),
                            att["burn_in"], att["collect_time"], att["count"], dt=att["dt"],
                            seed=pipeline._derive_seed(cfg["seed"], "attractor"))
    got = np.load(tmp_path / "attractor.npy")
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert list(manifest.data["stages"]["simulate"]["outputs"]) == (
        ["attractor.npy"] + [f"hist_{i:02d}.dwkbhist" for i in range(len(cfg["ladder"]))])
    assert multiprocessing.active_children() == []


def test_attractor_count_beyond_its_pool_fails_at_construction():
    # 100 points are available after the burn-in; the config refuses 101.
    attractor = {"x0": [0.5], "burn_in": 1.0, "collect_time": 1.0, "count": 100, "dt": 0.01}
    ou_mini_config(sim=TINY_SIM, attractor=attractor)
    with pytest.raises(ValueError, match="100 available"):
        ou_mini_config(sim=TINY_SIM, attractor=dict(attractor, count=101))


def diverging_benchmark(name, **params):
    """The benchmark with an infinite drift beyond |x| = 3, which no
    trajectory of TINY_SIM reaches but an attractor run started there meets
    at its first step."""
    system = make_benchmark(name, **params)
    drift = system.drift
    system.drift = lambda x: np.where(np.abs(x) > 3.0, np.inf, drift(x))
    return system


@pytest.mark.parametrize("cores", [1, 2])
def test_attractor_failure_keeps_its_type_and_writes_nothing(tmp_path, monkeypatch, cores):
    cfg = ou_mini_config(sim=TINY_SIM, attractor={"x0": [4.0], "burn_in": 1.0, "collect_time": 1.0,
                                                 "count": 10, "dt": 0.01})
    monkeypatch.setattr(pipeline, "make_benchmark", diverging_benchmark)
    use_cores(monkeypatch, cores)
    with pytest.raises(FloatingPointError, match="diverged") as info:
        run_stage("simulate", cfg, RunManifest(tmp_path))
    assert "in sample_attractor" in str(info.value.__cause__)  # the child's traceback
    assert_nothing_written(tmp_path)


class Refused(Exception):
    pass


def refuse(*args, **kwargs):
    raise Refused


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("failure", ["worker", "sink"])
def test_ensemble_failure_ends_the_attractor_child(tmp_path, monkeypatch, failure, cores):
    children = []

    def slow_attractor(*args, **kwargs):
        time.sleep(60)

    def ensemble(*args):
        children.extend(multiprocessing.active_children())  # the attractor child alone
        return simulate.simulate_ensemble(*args)

    monkeypatch.setattr(pipeline, "sample_attractor", slow_attractor)
    monkeypatch.setattr(pipeline, "simulate_ensemble", ensemble)
    if failure == "worker":
        monkeypatch.setattr(simulate, "_trajectory_generators", refuse)
    else:
        monkeypatch.setattr(DensityHistogram, "add_batch", refuse)
    use_cores(monkeypatch, cores)
    with pytest.raises(Refused):
        run_stage("simulate", ou_mini_config(sim=TINY_SIM), RunManifest(tmp_path))
    assert len(children) == 1 and children[0].exitcode == -signal.SIGTERM
    assert_nothing_written(tmp_path)


# -- analytic diagnostics ----------------------------------------------------


def test_manifest_save_is_atomic(tmp_path, monkeypatch):
    manifest = RunManifest(tmp_path)
    manifest.data["results"]["alpha"] = 1.0
    manifest.save()
    before = (tmp_path / "manifest.json").read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)
    manifest.data["results"]["alpha"] = 2.0
    with pytest.raises(OSError):
        manifest.save()
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert RunManifest(tmp_path).data["results"]["alpha"] == 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def ou_oracles():
    v = lambda x: np.atleast_2d(x)[:, 0] ** 2
    z = lambda x: np.full(np.atleast_2d(x).shape[0], np.pi**-0.5)
    return v, z


def test_evaluate_wkb_grid_mass_analytic():
    v, z = ou_oracles()
    grid = GridSpec((-2.0,), (2.0,), (2048,))
    values, mass = evaluate_wkb_grid(v, z, 0.04, grid, dims=(1, 0))
    assert values.shape == (2048,)
    assert np.all(values >= 0.0)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_evaluate_wkb_grid_clips_negative_prefactor():
    v, _ = ou_oracles()
    z_neg = lambda x: np.full(np.atleast_2d(x).shape[0], -1.0)
    grid = GridSpec((-2.0,), (2.0,), (256,))
    values, mass = evaluate_wkb_grid(v, z_neg, 0.04, grid, dims=(1, 0))
    assert np.all(values == 0.0) and mass == 0.0


def test_evaluate_wkb_grid_laplace_concentration():
    v, z = ou_oracles()
    eps = 0.02
    grid = GridSpec((-2.0,), (2.0,), (4096,))
    values, mass = evaluate_wkb_grid(v, z, eps, grid, dims=(1, 0))
    centers = grid.centers(np.arange(grid.n_cells))
    inside = v(centers) < 10.0 * eps
    assert values[inside].sum() / values.sum() >= 0.99


def test_fp_residual_zero_density(ou1d):
    grid = GridSpec((-3.0,), (3.0,), (128,))
    residual, rel = fp_residual_grid(ou1d, np.zeros(128), grid, 0.25)
    assert np.all(residual == 0.0) and rel == 0.0


def test_fp_residual_exact_ou_second_order(ou1d):
    eps = 0.25
    rels = {}
    for bins in (256, 512):
        grid = GridSpec((-3.0,), (3.0,), (bins,))
        centers = grid.centers(np.arange(bins))[:, 0]
        u = (np.pi * eps) ** -0.5 * np.exp(-centers**2 / eps)
        _, rels[bins] = fp_residual_grid(ou1d, u, grid, eps)
    assert rels[512] < 1e-3
    assert rels[256] / rels[512] == pytest.approx(4.0, rel=0.15)


def test_fp_residual_grid_too_coarse(ou1d):
    grid = GridSpec((-3.0,), (3.0,), (32,))
    with pytest.raises(ValueError, match="64"):
        fp_residual_grid(ou1d, np.zeros(32), grid, 0.25)


def test_fp_residual_2d_exact_gaussian():
    sys_ = make_benchmark("ou2d")
    eps = 0.3
    grid = GridSpec((-3.0, -3.0), (3.0, 3.0), (256, 256))
    centers = grid.centers(np.arange(grid.n_cells))
    u = (np.pi * eps) ** -1.0 * np.exp(-np.sum(centers**2, axis=1) / eps)
    _, rel = fp_residual_grid(sys_, u, grid, eps)
    assert rel < 2.5e-3


# -- end-to-end mini pipeline -------------------------------------------------


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("ou_mini")
    cfg = ou_mini_config()
    manifest = run_all(cfg, outdir)
    return cfg, manifest, outdir


def test_pipeline_records_all_stages(mini_run):
    cfg, manifest, outdir = mini_run
    assert sorted(manifest.data["stages"]) == sorted(STAGES)
    assert manifest.data["results"]["wkb"] == "holds"
    assert manifest.data["results"]["alpha"] > 0
    for stage in STAGES:
        for name in manifest.data["stages"][stage]["outputs"]:
            assert (outdir / name).exists()


def test_pipeline_idempotent_rerun(mini_run):
    cfg, manifest, outdir = mini_run
    mtimes = {f.name: f.stat().st_mtime_ns for f in outdir.iterdir()}
    run_stage("simulate", cfg, manifest)
    run_stage("train-v", cfg, manifest)
    for f in outdir.iterdir():
        if f.name in mtimes and f.name != "timing.log":
            assert f.stat().st_mtime_ns == mtimes[f.name], f.name


def test_pipeline_rejects_stale_upstream(mini_run, tmp_path):
    cfg, manifest, outdir = mini_run
    changed = ou_mini_config(seed=999)
    with pytest.raises(DependencyError, match="different config"):
        run_stage("regress", changed, manifest)


def test_density_outputs_shape(mini_run):
    cfg, manifest, outdir = mini_run
    values = np.load(outdir / "density.npy")
    assert values.shape == (256,)
    header = (outdir / "density.csv").read_text().splitlines()[0]
    assert header == "x0,value"
    assert manifest.data["results"]["mass"] > 0.1


def test_csvs_match_their_arrays(mini_run):
    cfg, _, outdir = mini_run

    def csv(name, **kwargs):
        return np.loadtxt(outdir / name, delimiter=",", skiprows=1, ndmin=2, **kwargs)

    reg = np.load(outdir / "regression.npy")
    reg = reg[reg["used_rows"] > 0]
    np.testing.assert_array_equal(csv("regression.csv"), np.column_stack(
        [reg[name] for name in ("point", "v_hat", "log_z0_hat", "slope", "rss_rescaled",
                                "dof", "reliable", "se_v", "se_log_z0")]))
    curves = np.load(outdir / "curves.npy")
    np.testing.assert_array_equal(csv("expanded.csv", usecols=(0, 1)),
                                  np.column_stack([curves["point"], curves["v"]]))
    assert {line.rsplit(",", 1)[1] for line in
            (outdir / "expanded.csv").read_text().splitlines()[1:]} == {"characteristic"}
    grid = cfg.grid()
    for name in ("density", "fp_residual"):
        np.testing.assert_array_equal(csv(f"{name}.csv"), np.column_stack(
            [grid.centers(np.arange(grid.n_cells)), np.load(outdir / f"{name}.npy").ravel()]))


def test_expand_without_samples_leaves_no_unrecorded_file(mini_run, tmp_path):
    # Seeds near level 0.06 lie above v_max 0.05, so no curve records a sample.
    cfg, _, outdir = mini_run
    run = tmp_path / "run"
    shutil.copytree(outdir, run)
    expand = dict(cfg.data["expand"], v_max=0.05, rel_band=0.1)
    with pytest.raises(ValueError, match="no curve samples"):
        run_stage("expand", ou_mini_config(expand=expand), RunManifest(run))
    stages = RunManifest(run).data["stages"]
    assert "expand" not in stages
    recorded = {name for stage in stages.values() for name in stage["outputs"]}
    assert {f.name for f in run.iterdir()} - recorded == {"manifest.json", "timing.log"}


def test_regress_without_results_leaves_no_unrecorded_file(mini_run, tmp_path):
    # With min_count above every count no point keeps the 4 levels a fit needs.
    cfg, _, outdir = mini_run
    run = tmp_path / "run"
    shutil.copytree(outdir, run)
    collocation = dict(cfg.data["collocation"], min_count=10**9)
    with pytest.raises(ValueError, match="no regression results"):
        run_stage("regress", ou_mini_config(collocation=collocation), RunManifest(run))
    stages = RunManifest(run).data["stages"]
    assert "regress" not in stages
    recorded = {name for stage in stages.values() for name in stage["outputs"]}
    assert {f.name for f in run.iterdir()} - recorded == {"manifest.json", "timing.log"}


def test_train_z_surfaces_extrapolation_errors(mini_run, tmp_path, monkeypatch):
    # Only a thin attractor point (InsufficientRowsError) is skipped.
    cfg, _, outdir = mini_run
    run = tmp_path / "run"
    shutil.copytree(outdir, run)

    def broken(*args, **kwargs):
        raise ValueError("broken extrapolation")

    monkeypatch.setattr(regression, "extrapolate_z0_attractor", broken)
    with pytest.raises(ValueError, match="broken extrapolation"):
        run_stage("train-z", cfg, RunManifest(run), force=True)


def test_regression_table_layout(mini_run):
    # Each row of regression.npy is regress_point on the row's ladder
    # counts; the far-field rule sets reliable and u_top is the top
    # level's density.  An excluded row is zero but for point and u_top.
    cfg, manifest, outdir = mini_run
    table = np.load(outdir / "regression.npy")
    assert table.dtype.names == ("point", "v_hat", "log_z0_hat", "slope", "rss_plain",
                                 "rss_rescaled", "dof", "used_rows", "reliable", "u_top",
                                 "se_v", "se_log_z0")
    ladder = cfg.data["ladder"]
    hists = [DensityHistogram.from_file(outdir / f"hist_{i:02d}.dwkbhist")
             for i in range(len(ladder))]
    assert [hist.epsilon for hist in hists] == ladder  # increasing: the top level is last
    h = cfg.grid().bin_volume
    totals = np.array([hist.total for hist in hists], dtype=float)
    info = manifest.data["stages"]["regress"]["info"]
    min_count = cfg.data["collocation"]["min_count"]
    excluded = 0
    for row in table:
        n0 = np.array([hist.counts_at(row["point"][None])[0] for hist in hists], dtype=float)
        assert row["u_top"] == n0[-1] / (h * totals[-1])
        r = regress_point(PointData(eps=np.array(ladder), u_hat=n0 / (h * totals), n0=n0,
                                    n=totals), (1, 0), row["point"], min_count=min_count)
        if r is None:
            excluded += 1
            assert all(row[name] == 0 for name in table.dtype.names
                       if name not in ("point", "u_top"))
            continue
        # every level's count enters the fit
        assert r.used_rows == np.sum(n0 >= min_count)
        expected = dict(dataclasses.asdict(r), u_top=row["u_top"],
                        reliable=r.v_hat <= info["far_field_threshold"])
        for name in table.dtype.names:
            assert np.array_equal(row[name], expected[name]), name
    assert 0 < excluded == info["excluded"] < table.size


def test_trained_v_is_the_checkpoint_expand_recorded(tmp_path):
    # Both checkpoints are on disk; only the manifest says which expand wrote.
    params = net.init_params(net.MlpSpec(widths=(1, 4, 1)), seed=0)
    for name, alpha in (("checkpoint_v.dwkbnet", 1.0), ("checkpoint_v_refined.dwkbnet", 2.0)):
        net.save_checkpoint(tmp_path / name, params, extra=json.dumps({"alpha": alpha}).encode())
    manifest = RunManifest(tmp_path)
    for outputs, alpha in ((["curves.npy"], 1.0), (["checkpoint_v_refined.dwkbnet"], 2.0)):
        manifest.data["stages"]["expand"] = {"config_hash": "", "info": {},
                                             "outputs": dict.fromkeys(outputs, "")}
        manifest.save()
        assert pipeline._load_trained_v(tmp_path).alpha == alpha
        assert pipeline._load_trained_v(tmp_path, refined=False).alpha == 1.0


def test_cli_end_to_end(tmp_path):
    cfg = ou_mini_config()
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg.data))
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "manifest.json").exists()
    # stage with unmet dependency fails cleanly
    code = cli_main(["train-v", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1


def test_cli_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    grid = {"lower": [-1.0], "upper": [1.0], "bins": [8]}
    # unparsable JSON, a list for the whole config, a mistyped ladder and grid
    for text in ("{not json", "[1, 2]", json.dumps({"grid": grid, "ladder": 5}),
                 json.dumps({"grid": 5, "ladder": [0.1, 0.2, 0.3, 0.4]})):
        bad.write_text(text)
        assert cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load config: ")
