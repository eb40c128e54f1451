"""The benchmark's three workloads: inputs, timed operations and checks.

Every input is made from the workload seed.  A workload's ``ops`` are the
timed calls into the package (stages or training entry points), run in
order; ``check`` then tests their outputs against closed forms and
returns the failure messages per operation plus the accuracy figures.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

import checks
from deepwkb import expand as expand_mod
from deepwkb import models, net, pipeline
from deepwkb import train_v as train_v_mod
from deepwkb import train_z as train_z_mod
from deepwkb.density import DensityHistogram
from deepwkb.pipeline import STAGES, RunConfig, RunManifest, run_stage

OU_ORACLE_Z0 = np.pi ** -0.5
# Accuracy figures, each reported by the workloads that produce it: RMS
# error of the regression's V and of the trained V and Z0 networks.
ACCURACY_METRICS = ("regression.v_err", "train_v.v_err", "train_z.z_err")
# Stages timed through run_stage.  The expand stage aborts the run on some
# seeds of the OU mini config (seed_characteristics finds no seed on a
# poorly trained V, see CHANGES.md), so no workload runs it or the stages
# after it; the OU workload drives the expand, evaluation and FP-residual
# kernels on the exact OU solution instead.
RUN_STAGES = STAGES[:STAGES.index("train-v") + 1]


def _sub_seed(seed, label):
    return int(np.random.SeedSequence([int(seed), zlib.crc32(label.encode())])
               .generate_state(1)[0])


def ou1d_config(seed):
    """The OU mini run of the pipeline tests, with the workload seed."""
    return RunConfig({
        "seed": int(seed),
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
    })


FIGURE8_MU = 0.5


def figure8_config(seed):
    """Eight levels on a 64 x 64 grid, 400 trajectories and 41,600
    retained samples per level; trajectories restart at their last state
    inside the box instead of escaping."""
    return RunConfig({
        "seed": int(seed),
        "benchmark": {"name": "figure8", "params": {"mu": FIGURE8_MU}},
        "ladder": [float(e) for e in np.linspace(0.15, 0.3, 8) ** 2],
        "grid": {"lower": [-3.5, -2.5], "upper": [3.5, 2.5], "bins": [64, 64]},
        "sim": {"dt": 0.01, "total_time": 65.0, "n_traj": 400,
                "sample_interval": 0.5, "escape_policy": "restart_at_last_inside",
                "burn_in_fraction": 0.2, "x0": [0.0, 1.0]},
        "attractor": {"x0": [0.0, 1.0], "burn_in": 50.0, "collect_time": 50.0,
                      "count": 200, "dt": 0.01},
        "collocation": {"m_points": 500, "traj_fraction": 0.8,
                        "min_count": 20, "far_field_percentile": 95.0},
    })


def figure8_v(x):
    x = np.atleast_2d(x)
    h = x[:, 1] ** 2 / 2.0 + x[:, 0] ** 4 / 12.0 - x[:, 0] ** 2 / 2.0
    return FIGURE8_MU * h**2


def _reliable(outdir):
    arr = np.load(outdir / "regression.npy")
    return arr[arr["reliable"] == 1]


def _validate_check(outdir, manifest):
    info = manifest.data["stages"]["validate"]["info"]
    rel = _reliable(outdir)
    rss = rel["rss_rescaled"][rel["dof"] == info["dof"]]
    return checks.ks_recompute(rss, info["dof"], info["ks_statistic"], info["p_value"])


def _simulate_check(cfg, outdir, manifest, all_inside):
    sim = cfg.data["sim"]
    per_level = checks.retained_per_trajectory(sim["total_time"], sim["dt"],
                                               sim["sample_interval"], sim["burn_in_fraction"])
    hists = [DensityHistogram.from_file(outdir / f"hist_{i:02d}.dwkbhist")
             for i in range(len(cfg.data["ladder"]))]
    aborted = [e["aborted"] for e in manifest.data["stages"]["simulate"]["info"]["per_eps"]]
    return checks.histogram_totals(hists, sim["n_traj"] * per_level, aborted, all_inside)


class PipelineWorkload:
    """Stages of the pipeline on one config, in a fresh run directory."""

    stages = RUN_STAGES

    def __init__(self, seed, workdir):
        self.cfg = self.config(seed)
        self.outdir = workdir
        self.manifest = RunManifest(workdir)

    def ops(self):
        return [(stage, f"pipeline.stage.{stage}",
                 lambda stage=stage: run_stage(stage, self.cfg, self.manifest))
                for stage in self.stages]


class OuExact:
    """The exact OU solution V = x^2 with the accessors of a trained V."""

    alpha = 1.0

    @staticmethod
    def v(x):
        return np.atleast_2d(x)[:, 0] ** 2

    @staticmethod
    def grad_v(x):
        return 2.0 * np.atleast_2d(x)

    @staticmethod
    def hess_v(x):
        return np.full((np.atleast_2d(x).shape[0], 1, 1), 2.0)

    @staticmethod
    def z(x):
        return np.full(np.atleast_2d(x).shape[0], OU_ORACLE_Z0)


class Ou1dPipeline(PipelineWorkload):
    config = staticmethod(ou1d_config)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.system = models.make_benchmark("ou1d")
        self.expand_seed = _sub_seed(seed, "expand")

    def ops(self):
        return super().ops() + [("expand-exact", None, self._expand),
                                ("evaluate-exact", None, self._evaluate),
                                ("fp-residual-exact", None, self._fp_residual)]

    def _expand(self):
        """Seed and trace characteristics as the expand stage does, on V = x^2."""
        e, grid = self.cfg.data["expand"], self.cfg.grid()
        domain = (grid.lower_arr, grid.upper_arr)
        seeds = expand_mod.seed_characteristics(self.system, OuExact, e["level"], e["count"],
                                                self.expand_seed, domain,
                                                rel_band=e["rel_band"])
        self.curves = expand_mod.trace_curves(
            self.system, seeds, e["step"], e["v_max"], domain, e["samples_per_curve"],
            transport=lambda x: pipeline.transport_coefficients(self.system, OuExact, x)[1],
            transport_every=max(1, round(0.01 / e["step"])))

    def _evaluate(self):
        self.density, self.mass = pipeline.evaluate_wkb_grid(
            OuExact, OuExact.z, self.cfg.data["evaluate"]["eps"], self.cfg.grid(), (1, 0))

    def _fp_residual(self):
        _, self.fp = pipeline.fp_residual_grid(self.system, self.density, self.cfg.grid(),
                                               self.cfg.data["evaluate"]["eps"])

    def check(self):
        cfg, outdir, man = self.cfg, self.outdir, self.manifest
        fails = {"simulate": _simulate_check(cfg, outdir, man, all_inside=False)}

        rel = _reliable(outdir)
        x = rel["point"][:, 0]
        fails["regress"] = (
            checks.t_statistics(rel["v_hat"], x**2, rel["se_v"], "V") +
            checks.t_statistics(rel["log_z0_hat"], np.log(OU_ORACLE_Z0), rel["se_log_z0"],
                                "log Z0"))
        fails["validate"] = _validate_check(outdir, man)

        e = cfg.data["expand"]
        fails["expand-exact"] = checks.exact_ou_curves(self.curves, e["count"],
                                                       e["samples_per_curve"])
        grid = cfg.grid()
        eps = cfg.data["evaluate"]["eps"]
        centers = grid.centers(np.arange(grid.n_cells))[:, 0]
        exact = (np.pi * eps) ** -0.5 * np.exp(-centers**2 / eps)
        fails["evaluate-exact"] = []
        if not np.allclose(self.density, exact, rtol=1e-12, atol=0.0) or abs(self.mass - 1) > 1e-6:
            fails["evaluate-exact"].append("WKB grid of the exact V, Z0 is not the OU density")
        fp_here = checks.fp_relative_residual_1d(
            lambda s: self.system.drift(s[:, None])[:, 0], self.density,
            grid.lower[0], grid.upper[0], eps)
        fails["fp-residual-exact"] = checks.relative_match(
            "FP relative residual", self.fp, fp_here, checks.RECOMPUTE_RTOL)
        if not self.fp < checks.FP_EXACT_MAX:
            fails["fp-residual-exact"].append(f"FP residual {self.fp:.3g} of the exact density")

        # The trained V's error is reported, not bounded: it moves with the
        # seed far more than a fixed bound allows for (see CHANGES.md).
        params, _, extra = net.load_checkpoint(outdir / "checkpoint_v.dwkbnet")
        alpha = json.loads(extra.decode())["alpha"]
        xs = centers[np.abs(centers) <= 0.5][:, None]
        v_err = np.sqrt(np.mean((checks.mlp_forward(params, xs) / alpha - xs[:, 0] ** 2) ** 2))
        accuracy = {
            "regression.v_err": float(np.sqrt(np.mean((rel["v_hat"] - x**2) ** 2))),
            "train_v.v_err": float(v_err),
        }
        return fails, accuracy


class Figure8Mc(PipelineWorkload):
    config = staticmethod(figure8_config)
    stages = ["simulate", "regress", "validate"]

    def check(self):
        cfg, outdir, man = self.cfg, self.outdir, self.manifest
        rel = _reliable(outdir)
        oracle = figure8_v(rel["point"])
        fails = {
            "simulate": _simulate_check(cfg, outdir, man, all_inside=True),
            "regress": checks.t_statistics(rel["v_hat"], oracle, rel["se_v"], "V"),
            "validate": _validate_check(outdir, man),
        }
        accuracy = {"regression.v_err": float(np.sqrt(np.mean((rel["v_hat"] - oracle) ** 2)))}
        return fails, accuracy


class PaperTrain:
    """train_qp then train_z at the paper width on 2-D OU training sets
    built from the exact V = |x|^2 and Z0 = 1/pi."""

    set_size = 512
    epochs_v, fine_tune_v = 12, 3
    epochs_z, fine_tune_z = 6, 2

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(_sub_seed(seed, "sets"))
        self.system = models.make_benchmark("ou2d")
        m = self.set_size
        near = 1e-3 * rng.standard_normal((m // 4, 2))   # the attractor is the origin
        box = [rng.uniform(-1.0, 1.0, size=(m, 2)) for _ in range(4)]
        self.qp_sets = train_v_mod.QpTrainingSets(
            x1=near, x2=box[0], x2_targets=np.sum(box[0] ** 2, axis=1),
            x2_artificial=np.zeros(m, dtype=bool), x3=box[1])
        self.z_sets = train_z_mod.ZTrainingSets(
            y1=near, y1_targets=np.full(len(near), 1.0 / np.pi),
            y2=box[2], y2_targets=np.full(m, 1.0 / np.pi), y3=box[3])
        self.cfg_v = train_v_mod.QpTrainConfig(
            epochs=self.epochs_v, fine_tune_epochs=self.fine_tune_v,
            seed=_sub_seed(seed, "train_v"))
        self.cfg_z = train_v_mod.QpTrainConfig(
            epochs=self.epochs_z, fine_tune_epochs=self.fine_tune_z,
            seed=_sub_seed(seed, "train_z"))
        self.check_seed = _sub_seed(seed, "check")
        self.trained_v = self.trained_z = None

    def ops(self):
        def fit_v():
            self.trained_v = train_v_mod.train_qp(self.qp_sets, self.cfg_v, self.system)

        def fit_z():
            self.trained_z = train_z_mod.train_z(self.z_sets, self.cfg_z, self.system,
                                                 self.trained_v)
        return [("train_qp", None, fit_v), ("train_z", None, fit_z)]

    def check(self):
        system, tv, tz = self.system, self.trained_v, self.trained_z
        qs, zs = self.qp_sets, self.z_sets
        b = 128
        batches = {
            "qp": {"L1": qs.x1[:b], "L2": (qs.x2[:b], qs.x2_targets[:b]), "L3": qs.x3[:b]},
            "z": {"L1": (zs.y1[:b], zs.y1_targets[:b]), "L2": (zs.y2[:b], zs.y2_targets[:b]),
                  "L3": zs.y3[:b]},
        }
        loss = {
            "qp": lambda kind, p: train_v_mod.qp_loss(kind, p, batches["qp"][kind], system),
            "z": lambda kind, p: train_z_mod.z_loss(kind, p, batches["z"][kind], system, tv),
        }
        fails = {"train_qp": [], "train_z": []}
        for net_name, op, params in (("qp", "train_qp", tv.params), ("z", "train_z", tz.params)):
            dirs = checks.unit_directions(params.size, 3, self.check_seed)
            for kind in ("L1", "L2", "L3"):
                msgs = checks.directional_fd(lambda p: loss[net_name](kind, p), params, dirs)
                fails[op] += [f"{net_name}_loss {kind}: {m}" for m in msgs]

        # L3 values with every input derivative taken by central differences.
        x = batches["qp"]["L3"]
        f = system.drift(x)
        g = checks.fd_gradient(lambda y: net.forward(tv.params, y), x)
        value = float(np.mean((np.sum(f * g, axis=1) + 0.5 * np.sum(g * g, axis=1)) ** 2))
        fails["train_qp"] += checks.relative_match(
            "qp_loss L3", train_v_mod.qp_loss("L3", tv.params, x, system)[0], value, 1e-5)
        x = batches["z"]["L3"]
        gv = checks.fd_gradient(tv.v, x)
        hv = checks.fd_hessian(tv.v, x)
        gz = checks.fd_gradient(tz.z, x)
        bvec = system.drift(x) + gv
        c = system.drift_divergence(x) + 0.5 * np.trace(hv, axis1=1, axis2=2)
        value = float(np.mean((np.sum(bvec * gz, axis=1) + c * tz.z(x)) ** 2))
        fails["train_z"] += checks.relative_match(
            "z_loss L3", train_z_mod.z_loss("L3", tz.params, x, system, tv)[0], value, 1e-5)

        for op, trained in (("train_qp", tv), ("train_z", tz)):
            if np.isinf(np.asarray(trained.log, dtype=float)).any():  # NaN marks idle losses
                fails[op].append("a logged loss is not finite")

        axis = np.linspace(-1.0, 1.0, 41)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        accuracy = {
            "train_v.v_err": float(np.sqrt(np.mean((tv.v(grid) - np.sum(grid**2, axis=1)) ** 2))),
            "train_z.z_err": float(np.sqrt(np.mean((tz.z(grid) - 1.0 / np.pi) ** 2))),
        }
        return fails, accuracy


WORKLOADS = {
    "ou1d-pipeline": Ou1dPipeline,
    "figure8-mc": Figure8Mc,
    "paper-train": PaperTrain,
}
