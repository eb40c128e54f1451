"""Staged pipeline: configuration, persistence, orchestration, diagnostics.

A run is described by a versioned JSON config and driven stage by stage:

    simulate -> regress -> validate -> train-v -> expand -> train-z
             -> evaluate -> fp-residual

Each stage persists its outputs under the run directory and records them
in ``manifest.json`` together with a content hash of the config sections
it depends on (chained through its upstream stages), so re-running a
completed stage with an unchanged config is a no-op unless forced.  A
stage that does run first deletes the outputs of its previous run.
Wall-clock times go to a separate ``timing.log``; the manifest itself
stays bitwise reproducible across identical runs.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import time
import zlib
from pathlib import Path

import numpy as np

from . import expand as expand_mod
from . import net
from .density import DensityHistogram, GridSpec, select_collocation
from .models import make_benchmark
from .regression import (RegressionResult, export_csv,
                         extrapolate_z0_attractor, regress_collocation, PointData)
from .simulate import SimConfig, sample_attractor, simulate_ensemble
from .train_v import QpTrainConfig, TrainedQp, assemble_qp_sets, train_qp
from .train_z import TrainedZ, assemble_z_sets, train_z, transport_coefficients
from .validation import export_rss_csv, validate_wkb

__all__ = [
    "STAGES",
    "RunConfig",
    "RunManifest",
    "DependencyError",
    "run_stage",
    "run_all",
    "evaluate_wkb_grid",
    "fp_residual_grid",
]

CONFIG_VERSION = 1

STAGES = ["simulate", "regress", "validate", "train-v", "expand",
          "train-z", "evaluate", "fp-residual"]

# Config sections each stage reads; upstream hashes are chained on top.
_STAGE_KEYS = {
    "simulate": ("seed", "benchmark", "ladder", "grid", "sim", "attractor"),
    "regress": ("collocation",),
    "validate": ("validate",),
    "train-v": ("train_v",),
    "expand": ("expand",),
    "train-z": ("train_z",),
    "evaluate": ("evaluate",),
    "fp-residual": (),
}
_STAGE_PARENT = {
    "simulate": None,
    "regress": "simulate",
    "validate": "regress",
    "train-v": "regress",
    "expand": "train-v",
    "train-z": "expand",
    "evaluate": "train-z",
    "fp-residual": "evaluate",
}

# Both training sections start from QpTrainConfig's defaults.  The seed is
# derived per stage; train-z has no far field, artificial value or residual cap.
_TRAIN_V_DEFAULTS = {k: v for k, v in dataclasses.asdict(QpTrainConfig()).items()
                     if k != "seed"}
_TRAIN_Z_DEFAULTS = {k: v for k, v in _TRAIN_V_DEFAULTS.items()
                     if k not in ("residual_count", "artificial_value", "far_field_density")}

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "benchmark": {"name": "ou1d", "params": {}},
    "ladder": [],
    "grid": {"lower": [], "upper": [], "bins": []},
    "sim": {"dt": 0.01, "total_time": 100.0, "n_traj": 10,
            "sample_interval": 0.1, "escape_policy": "none",
            "burn_in_fraction": 0.01, "x0": None},
    "attractor": {"x0": None, "burn_in": 50.0, "collect_time": 200.0,
                  "count": 500, "dt": 0.01},
    "collocation": {"m_points": 1000, "traj_fraction": 0.5,
                    "min_count": 20, "far_field_percentile": 95.0},
    "validate": {"significance": 0.01},
    "train_v": _TRAIN_V_DEFAULTS,
    "expand": {"level": 0.05, "count": 50, "step": 1e-4, "v_max": 0.4,
               "samples_per_curve": 20, "rel_band": 0.1, "refine_epochs": 50},
    "train_z": dict(_TRAIN_Z_DEFAULTS, y2_regression=3000, y2_transport=3000,
                    y3=4000),
    "evaluate": {"eps": None},
}


class DependencyError(RuntimeError):
    pass


def _deep_merge(base, override, where=""):
    """``override`` merged into a copy of ``base``.  A key ``base`` lacks is
    an error, except under benchmark.params, which make_benchmark checks."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        name = where + key
        if key not in out:
            raise ValueError(f"unknown config key {name!r}")
        if isinstance(out[key], dict) and isinstance(val, dict) and name != "benchmark.params":
            out[key] = _deep_merge(out[key], val, name + ".")
        else:
            out[key] = copy.deepcopy(val)
    return out


class RunConfig:
    """Normalized run configuration (user dict deep-merged into defaults)."""

    def __init__(self, data):
        if data.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {data.get('version')}")
        self.data = _deep_merge(DEFAULT_CONFIG, data)
        self.validate()

    def __getitem__(self, key):
        return self.data[key]

    def validate(self):
        system = self.system()
        n = system.dim_state
        g = self.data["grid"]
        if not (len(g["lower"]) == len(g["upper"]) == len(g["bins"]) == n):
            raise ValueError("grid dimensions do not match the benchmark")
        ladder = self.data["ladder"]
        if len(ladder) <= 3 or any(e <= 0 for e in ladder) or \
                any(b >= a for b, a in zip(ladder, ladder[1:])):
            raise ValueError("ladder must be > 3 strictly increasing positive levels")
        if self.data["evaluate"]["eps"] is None:
            self.data["evaluate"]["eps"] = ladder[0]

    # -- derived objects -------------------------------------------------

    def system(self):
        b = self.data["benchmark"]
        return make_benchmark(b["name"], **b["params"])

    def grid(self) -> GridSpec:
        g = self.data["grid"]
        return GridSpec(tuple(g["lower"]), tuple(g["upper"]), tuple(g["bins"]))

    def train_cfg(self, section, seed) -> QpTrainConfig:
        s = {k: v for k, v in self.data[section].items() if k in _TRAIN_V_DEFAULTS}
        if s["widths"] is not None:
            s["widths"] = tuple(s["widths"])
        return QpTrainConfig(**s, seed=seed)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls(json.loads(Path(path).read_text()))

    def stage_hash(self, stage) -> str:
        parent = _STAGE_PARENT[stage]
        payload = {key: self.data[key] for key in _STAGE_KEYS[stage]}
        blob = json.dumps(payload, sort_keys=True)
        if parent is not None:
            blob += self.stage_hash(parent)
        return hashlib.sha256(blob.encode()).hexdigest()


class RunManifest:
    """Stage completion markers, output hashes and scalar results."""

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.path = self.outdir / "manifest.json"
        if self.path.exists():
            self.data = json.loads(self.path.read_text())
        else:
            self.data = {"version": 1, "stages": {}, "results": {}}

    def save(self):
        self.outdir.mkdir(parents=True, exist_ok=True)
        with net.write_atomically(self.path) as fh:
            fh.write((json.dumps(self.data, sort_keys=True, indent=2) + "\n").encode())

    def stage_complete(self, stage):
        return stage in self.data["stages"]

    def record_stage(self, stage, cfg_hash, outputs, info=None):
        self.data["stages"][stage] = {
            "config_hash": cfg_hash,
            "outputs": {name: _sha256(self.outdir / name) for name in outputs},
            "info": info or {},
        }

    def up_to_date(self, stage, cfg_hash):
        entry = self.data["stages"].get(stage)
        if entry is None or entry["config_hash"] != cfg_hash:
            return False
        for name, digest in entry["outputs"].items():
            f = self.outdir / name
            if not f.exists() or _sha256(f) != digest:
                return False
        return True


def _sha256(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _derive_seed(base, label, index=0):
    return int(np.random.SeedSequence([int(base), zlib.crc32(label.encode()), index])
               .generate_state(1)[0])


# ---------------------------------------------------------------------------
# Stage implementations.  Each returns (output file names, info dict).
# ---------------------------------------------------------------------------


def _hist_name(i):
    return f"hist_{i:02d}.dwkbhist"


def _stage_simulate(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    grid = cfg.grid()
    sim = cfg.data["sim"]
    att = cfg.data["attractor"]

    x0 = att["x0"] if att["x0"] is not None else 0.5 * (grid.lower_arr + grid.upper_arr)
    attractor = sample_attractor(system, np.asarray(x0, dtype=float),
                                 att["burn_in"], att["collect_time"], att["count"],
                                 dt=att["dt"], seed=_derive_seed(cfg["seed"], "attractor"))
    np.save(outdir / "attractor.npy", attractor)

    ladder = cfg.data["ladder"]
    hists = [DensityHistogram(grid, eps) for eps in ladder]
    levels = [SimConfig(
        epsilon=eps, dt=sim["dt"], total_time=sim["total_time"],
        n_traj=sim["n_traj"], sample_interval=sim["sample_interval"],
        seed=_derive_seed(cfg["seed"], "simulate", i),
        domain=(grid.lower_arr, grid.upper_arr),
        escape_policy=sim["escape_policy"],
        x0=None if sim["x0"] is None else np.asarray(sim["x0"], dtype=float),
        burn_in_fraction=sim["burn_in_fraction"],
    ) for i, eps in enumerate(ladder)]
    summary = simulate_ensemble(system, levels, [h.add_batch for h in hists])
    outputs = ["attractor.npy"]
    for i, hist in enumerate(hists):
        hist.to_file(outdir / _hist_name(i))
        outputs.append(_hist_name(i))
    info = {"per_eps": [{"eps": eps, **counts} for eps, counts in zip(ladder, summary.per_level)]}
    return outputs, info


_REG_FIELDS = [("v_hat", "f8"), ("log_z0_hat", "f8"), ("slope", "f8"),
               ("rss_plain", "f8"), ("rss_rescaled", "f8"), ("dof", "i8"),
               ("used_rows", "i8"), ("reliable", "i8"), ("u_top", "f8"),
               ("se_v", "f8"), ("se_log_z0", "f8")]


def _load_hists(cfg, outdir):
    return [DensityHistogram.from_file(outdir / _hist_name(i))
            for i in range(len(cfg.data["ladder"]))]


def _stage_regress(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    grid = cfg.grid()
    hists = _load_hists(cfg, outdir)
    coll = cfg.data["collocation"]
    colloc = select_collocation(grid, hists, coll["m_points"],
                                traj_fraction=coll["traj_fraction"],
                                seed=_derive_seed(cfg["seed"], "collocation"))
    results, threshold = regress_collocation(
        colloc, cfg.data["ladder"], (system.dim_state, system.attractor_dim), grid,
        min_count=coll["min_count"], far_field_percentile=coll["far_field_percentile"])

    top = hists[-1]
    u_top = top.counts_at(colloc.points) / (grid.bin_volume * top.total)
    arr = np.zeros(len(colloc), dtype=[("point", "f8", (system.dim_state,))] + _REG_FIELDS)
    arr["point"] = colloc.points
    arr["u_top"] = u_top
    for i, r in enumerate(results):
        if r is None:
            continue
        for name in ("v_hat", "log_z0_hat", "slope", "rss_plain", "rss_rescaled",
                     "se_v", "se_log_z0"):
            arr[name][i] = getattr(r, name)
        arr["dof"][i] = r.dof
        arr["used_rows"][i] = r.used_rows
        arr["reliable"][i] = int(r.reliable)
    np.save(outdir / "regression.npy", arr)
    export_csv(results, outdir / "regression.csv")
    n_ok = sum(r is not None for r in results)
    return ["regression.npy", "regression.csv"], {
        "points": len(colloc), "regressed": n_ok,
        "excluded": len(colloc) - n_ok, "far_field_threshold": threshold,
    }


def _load_regressions(outdir):
    """(results, collocation points, top-level densities) from regression.npy."""
    arr = np.load(outdir / "regression.npy")
    results = []
    for row in arr:
        if row["used_rows"] == 0:
            results.append(None)
            continue
        results.append(RegressionResult(
            point=np.asarray(row["point"]),
            v_hat=float(row["v_hat"]), log_z0_hat=float(row["log_z0_hat"]),
            slope=float(row["slope"]), rss_plain=float(row["rss_plain"]),
            rss_rescaled=float(row["rss_rescaled"]), dof=int(row["dof"]),
            used_rows=int(row["used_rows"]), reliable=bool(row["reliable"]),
            se_v=float(row["se_v"]), se_log_z0=float(row["se_log_z0"]),
        ))
    return results, np.asarray(arr["point"]), np.asarray(arr["u_top"])


def _stage_validate(cfg: RunConfig, outdir: Path):
    results, _, _ = _load_regressions(outdir)
    report = validate_wkb(results, significance=cfg.data["validate"]["significance"],
                          dof=len(cfg.data["ladder"]) - 3)
    report.write(outdir / "validation.txt")
    export_rss_csv(results, outdir / "rss.csv")
    verdict = "holds" if report.passed else "does not hold"
    return ["validation.txt", "rss.csv"], {
        "wkb": verdict, "p_value": report.p_value,
        "ks_statistic": report.ks_statistic, "dof": report.dof,
        "points_tested": report.n_tested,
    }


def _stage_train_v(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    results, points, u_top = _load_regressions(outdir)
    tcfg = cfg.train_cfg("train_v", _derive_seed(cfg["seed"], "train_v"))
    sets = assemble_qp_sets(np.load(outdir / "attractor.npy"), points, results, tcfg,
                            largest_eps_density=u_top)
    trained = train_qp(sets, tcfg, system)
    net.save_checkpoint(outdir / "checkpoint_v.dwkbnet", trained.params,
                        extra=json.dumps({"alpha": trained.alpha}).encode())
    _write_train_log(outdir / "trainlog_v.csv", trained.log)
    return ["checkpoint_v.dwkbnet", "trainlog_v.csv"], {"alpha": trained.alpha}


def _write_train_log(path, log):
    with open(path, "w") as fh:
        fh.write("epoch,L1,L2,L3\n")
        for row in log:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


def _load_trained_v(outdir, refined=True) -> TrainedQp:
    name = "checkpoint_v_refined.dwkbnet"
    if not refined or not (outdir / name).exists():
        name = "checkpoint_v.dwkbnet"
    params, _, extra = net.load_checkpoint(outdir / name)
    alpha = json.loads(extra.decode())["alpha"]
    return TrainedQp(params=params, alpha=alpha)


def _stage_expand(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    grid = cfg.grid()
    # Seed from the first-round network even on forced re-runs.
    trained = _load_trained_v(outdir, refined=False)
    e = cfg.data["expand"]

    def transport(x):
        return transport_coefficients(system, trained, x)[1]

    seeds = expand_mod.seed_characteristics(
        system, trained, e["level"], e["count"],
        _derive_seed(cfg["seed"], "expand"), (grid.lower_arr, grid.upper_arr),
        rel_band=e["rel_band"])
    # Refresh the transport coefficient roughly every 0.01 units of s.
    every = max(1, round(0.01 / e["step"]))
    curves = expand_mod.trace_curves(system, seeds, e["step"], e["v_max"],
                                     (grid.lower_arr, grid.upper_arr),
                                     e["samples_per_curve"], transport=transport,
                                     transport_every=every)

    n = system.dim_state
    rows = [(ci, st.x, st.v, st.log_z)
            for ci, curve in enumerate(curves) for st in curve.states]
    arr = np.zeros(len(rows), dtype=[("curve", "i8"), ("point", "f8", (n,)),
                                     ("v", "f8"), ("log_z", "f8")])
    for k, (ci, x, v, lz) in enumerate(rows):
        arr[k] = (ci, x, v, lz)
    np.save(outdir / "curves.npy", arr)
    np.save(outdir / "curve_seeds.npy", np.asarray([s.x for s in seeds]))
    expand_mod.export_expanded_csv(curves, outdir / "expanded.csv")
    reasons = sorted(set(c.reason for c in curves))
    outputs = ["curves.npy", "curve_seeds.npy", "expanded.csv"]
    info = {
        "curves": len(curves), "samples": len(rows),
        "max_energy_drift": max((c.max_energy_drift for c in curves), default=0.0),
        "termination_reasons": reasons,
    }

    # Continue training V on the expanded set (curriculum: start from the
    # learned parameters, artificial targets drop out in favor of curves).
    if e["refine_epochs"] > 0 and len(rows):
        results, points, u_top = _load_regressions(outdir)
        tcfg = cfg.train_cfg("train_v", _derive_seed(cfg["seed"], "refine_v"))
        tcfg.epochs = e["refine_epochs"]
        tcfg.fine_tune_epochs = max(1, e["refine_epochs"] // 5)
        sets = assemble_qp_sets(np.load(outdir / "attractor.npy"), points, results, tcfg,
                                largest_eps_density=u_top,
                                expanded=(arr["point"], arr["v"]))
        refined = train_qp(sets, tcfg, system, initial=trained.params)
        net.save_checkpoint(outdir / "checkpoint_v_refined.dwkbnet", refined.params,
                            extra=json.dumps({"alpha": refined.alpha}).encode())
        _write_train_log(outdir / "trainlog_v_refined.csv", refined.log)
        outputs += ["checkpoint_v_refined.dwkbnet", "trainlog_v_refined.csv"]
        info["alpha"] = refined.alpha
    return outputs, info


def _stage_train_z(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    grid = cfg.grid()
    dims = (system.dim_state, system.attractor_dim)
    hists = _load_hists(cfg, outdir)
    eps = np.asarray(cfg.data["ladder"])
    results, _, _ = _load_regressions(outdir)
    trained_v = _load_trained_v(outdir)

    # Attractor targets by extrapolation to eps = 0.
    attractor_points = np.load(outdir / "attractor.npy")
    h = grid.bin_volume
    counts = np.stack([hh.counts_at(attractor_points) for hh in hists], axis=1)
    totals = np.asarray([hh.total for hh in hists], dtype=float)
    attr_pts, attr_z0 = [], []
    min_count = cfg.data["collocation"]["min_count"]
    for i in range(attractor_points.shape[0]):
        data = PointData(eps=eps, u_hat=counts[i] / (h * totals),
                         n0=counts[i].astype(float), n=totals)
        try:
            z0 = extrapolate_z0_attractor(data, dims, min_count=min_count)
        except ValueError:
            continue
        attr_pts.append(attractor_points[i])
        attr_z0.append(z0)
    if not attr_pts:
        raise RuntimeError("no attractor point has enough data for the eps->0 extrapolation")

    # Transported prefactor along the stored curves: the seed value comes
    # from the nearest reliable regression point.
    curves = np.load(outdir / "curves.npy")
    seeds = np.load(outdir / "curve_seeds.npy")
    rel = [r for r in results if r is not None and r.reliable]
    rel_pts = np.asarray([r.point for r in rel])
    rel_z0 = np.exp(np.asarray([r.log_z0_hat for r in rel]))
    cur_pts, cur_z0 = [], []
    if curves.shape[0] and rel_pts.shape[0]:
        for ci in range(seeds.shape[0]):
            mask = curves["curve"] == ci
            if not mask.any():
                continue
            nearest = int(np.argmin(np.linalg.norm(rel_pts - seeds[ci], axis=1)))
            z_init = rel_z0[nearest]
            cur_pts.append(curves["point"][mask])
            cur_z0.append(z_init * np.exp(curves["log_z"][mask]))
    transported = None
    if cur_pts:
        transported = (np.concatenate(cur_pts), np.concatenate(cur_z0))

    z = cfg.data["train_z"]
    zcfg = cfg.train_cfg("train_z", _derive_seed(cfg["seed"], "train_z"))
    sets = assemble_z_sets((np.asarray(attr_pts), np.asarray(attr_z0)), results,
                           transported,
                           {"y2_regression": z["y2_regression"],
                            "y2_transport": z["y2_transport"], "y3": z["y3"]},
                           _derive_seed(cfg["seed"], "z_sets"))
    trained_z = train_z(sets, zcfg, system, trained_v)
    net.save_checkpoint(outdir / "checkpoint_z.dwkbnet", trained_z.params)
    _write_train_log(outdir / "trainlog_z.csv", trained_z.log)
    return ["checkpoint_z.dwkbnet", "trainlog_z.csv"], {
        "attractor_targets": len(attr_pts),
        "transported_points": 0 if transported is None else int(transported[0].shape[0]),
    }


def evaluate_wkb_grid(trained_v, trained_z, eval_eps, grid: GridSpec, dims):
    """WKB density  eps^-((n-d)/2) max(Z, 0) exp(-V/eps)  on bin centers.

    ``trained_v`` / ``trained_z`` may be trained networks (alpha-corrected
    through their accessors) or plain callables, e.g. analytic oracles.
    Returns (values shaped like the grid, Riemann-sum mass).
    """
    v_fn = trained_v.v if hasattr(trained_v, "v") else trained_v
    z_fn = trained_z.z if hasattr(trained_z, "z") else trained_z
    n_dim, d_attr = dims
    flat = np.arange(grid.n_cells)
    centers = grid.centers(flat)
    values = np.empty(grid.n_cells)
    for start in range(0, grid.n_cells, 8192):
        blk = centers[start:start + 8192]
        v = np.asarray(v_fn(blk), dtype=float)
        z = np.maximum(np.asarray(z_fn(blk), dtype=float), 0.0)
        values[start:start + 8192] = z * np.exp(-v / eval_eps)
    values *= eval_eps ** (-0.5 * (n_dim - d_attr))
    values = values.reshape(grid.bins_per_dim)
    mass = float(values.sum() * grid.bin_volume)
    return values, mass


def _second_diff(arr, axis, h):
    out = np.zeros_like(arr)
    inner = [slice(None)] * arr.ndim
    plus = [slice(None)] * arr.ndim
    minus = [slice(None)] * arr.ndim
    inner[axis] = slice(1, -1)
    plus[axis] = slice(2, None)
    minus[axis] = slice(None, -2)
    out[tuple(inner)] = (arr[tuple(plus)] - 2.0 * arr[tuple(inner)] + arr[tuple(minus)]) / h**2
    return out


def _first_diff(arr, axis, h):
    out = np.zeros_like(arr)
    inner = [slice(None)] * arr.ndim
    plus = [slice(None)] * arr.ndim
    minus = [slice(None)] * arr.ndim
    inner[axis] = slice(1, -1)
    plus[axis] = slice(2, None)
    minus[axis] = slice(None, -2)
    out[tuple(inner)] = (arr[tuple(plus)] - arr[tuple(minus)]) / (2.0 * h)
    return out


def fp_residual_grid(system, values, grid: GridSpec, eps):
    """Stationary Fokker-Planck residual of a density grid.

    L u = -sum_i d_i(f^i u) + eps/2 sum_ij d^2_ij(a^ij u), discretized
    with second-order central differences on interior nodes (compact
    stencil on the diagonal, iterated central differences for mixed
    terms).  Returns (residual grid, relative L2 norm); the norm is
    ||Lu|| / (eps ||u|| max(1, max|div f|)).
    """
    if min(grid.bins_per_dim) < 64:
        raise ValueError("fp residual needs at least 64 bins per dimension")
    values = np.asarray(values, dtype=float).reshape(grid.bins_per_dim)
    n = grid.dim
    centers = grid.centers(np.arange(grid.n_cells))
    f = system.drift(centers)
    a = system.a
    widths = grid.widths

    residual = np.zeros_like(values)
    for i in range(n):
        fu = (f[:, i]).reshape(grid.bins_per_dim) * values
        residual -= _first_diff(fu, i, widths[i])
    for i in range(n):
        for j in range(n):
            if a[i, j] == 0.0:
                continue
            au = a[i, j] * values
            if i == j:
                residual += 0.5 * eps * _second_diff(au, i, widths[i])
            else:
                residual += 0.5 * eps * _first_diff(_first_diff(au, j, widths[j]), i, widths[i])

    interior = tuple(slice(1, -1) for _ in range(n))
    res_norm = float(np.linalg.norm(residual[interior]))
    u_norm = float(np.linalg.norm(values[interior]))
    div_scale = max(1.0, float(np.max(np.abs(system.drift_divergence(centers)))))
    rel = res_norm / (eps * u_norm * div_scale) if u_norm > 0 else 0.0
    return residual, rel


def _write_grid_csv(path, grid: GridSpec, values):
    # Column order: coordinates ascending-major (C order), then value.
    flat = np.arange(grid.n_cells)
    centers = grid.centers(flat)
    vals = np.asarray(values).reshape(-1)
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i}" for i in range(grid.dim)] + ["value"]) + "\n")
        for row, v in zip(centers, vals):
            fh.write(",".join(f"{c:.17g}" for c in row) + f",{v:.17g}\n")


def _stage_evaluate(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    grid = cfg.grid()
    trained_v = _load_trained_v(outdir)
    params_z, _, _ = net.load_checkpoint(outdir / "checkpoint_z.dwkbnet")
    trained_z = TrainedZ(params=params_z)
    eps = cfg.data["evaluate"]["eps"]
    values, mass = evaluate_wkb_grid(trained_v, trained_z, eps, grid,
                                     (system.dim_state, system.attractor_dim))
    np.save(outdir / "density.npy", values)
    _write_grid_csv(outdir / "density.csv", grid, values)
    return ["density.npy", "density.csv"], {"eps": eps, "mass": mass}


def _stage_fp_residual(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    grid = cfg.grid()
    values = np.load(outdir / "density.npy")
    eps = cfg.data["evaluate"]["eps"]
    residual, rel = fp_residual_grid(system, values, grid, eps)
    np.save(outdir / "fp_residual.npy", residual)
    _write_grid_csv(outdir / "fp_residual.csv", grid, residual)
    return ["fp_residual.npy", "fp_residual.csv"], {"relative_residual": rel}


_STAGE_FUNCS = {
    "simulate": _stage_simulate,
    "regress": _stage_regress,
    "validate": _stage_validate,
    "train-v": _stage_train_v,
    "expand": _stage_expand,
    "train-z": _stage_train_z,
    "evaluate": _stage_evaluate,
    "fp-residual": _stage_fp_residual,
}


def run_stage(stage, cfg: RunConfig, manifest: RunManifest, force=False) -> RunManifest:
    """Execute exactly one stage; idempotent re-runs are skipped.

    Raises DependencyError when an upstream stage has not completed, and
    refuses hash mismatches (stale upstream) unless forced.  The files
    the manifest recorded for the stage's previous run are deleted first.
    """
    if stage not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {stage!r}; stages: {STAGES}")
    parent = _STAGE_PARENT[stage]
    if parent is not None:
        if not manifest.stage_complete(parent):
            raise DependencyError(f"stage {stage!r} requires {parent!r} to be complete")
        parent_hash = cfg.stage_hash(parent)
        recorded = manifest.data["stages"][parent]["config_hash"]
        if recorded != parent_hash and not force:
            raise DependencyError(
                f"stage {parent!r} was produced by a different config; rerun it or use force")
    cfg_hash = cfg.stage_hash(stage)
    if not force and manifest.up_to_date(stage, cfg_hash):
        return manifest

    previous = manifest.data["stages"].pop(stage, None)
    if previous is not None:
        for name in previous["outputs"]:
            (manifest.outdir / name).unlink(missing_ok=True)
        manifest.save()
    manifest.outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    outputs, info = _STAGE_FUNCS[stage](cfg, manifest.outdir)
    elapsed = time.monotonic() - t0
    manifest.record_stage(stage, cfg_hash, outputs, info)
    for key in ("alpha", "mass", "wkb", "relative_residual"):
        if key in (info or {}):
            manifest.data["results"][key] = info[key]
    manifest.save()
    with open(manifest.outdir / "timing.log", "a") as fh:
        fh.write(f"{stage}: {elapsed:.3f} s\n")
    return manifest


def run_all(cfg: RunConfig, outdir, force=False) -> RunManifest:
    manifest = RunManifest(outdir)
    for stage in STAGES:
        run_stage(stage, cfg, manifest, force=force)
    return manifest
