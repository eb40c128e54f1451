import json

import numpy as np
import pytest

from deepwkb.cli import main as cli_main
from deepwkb.density import GridSpec
from deepwkb.models import make_benchmark
from deepwkb.pipeline import (STAGES, DependencyError, RunConfig, RunManifest,
                              evaluate_wkb_grid, fp_residual_grid, run_all,
                              run_stage)
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


def test_rerun_deletes_outputs_it_no_longer_writes(tmp_path):
    # Rerunning simulate with one noise level fewer must not leave the old
    # level's histogram behind for the next stages to read.
    tiny = {"sim": {"dt": 0.04, "total_time": 4.0, "n_traj": 4, "sample_interval": 0.4,
                    "escape_policy": "none", "burn_in_fraction": 0.01, "x0": None},
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


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
