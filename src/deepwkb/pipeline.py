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

One table, ``_STAGE_TABLE``, names each stage's parent, the config
sections it reads and its implementation.  Every stage saves its arrays
as ``.npy`` and writes its CSV views of them through one writer,
``_write_csv``, at full float64 precision (``%.17g``, which reads back
exactly); the training loss logs use ``%.10g``.  The regression results
are one structured array, the table described in ``regression``: the
regress stage saves it as ``regression.npy``, and validate, train-v,
expand and train-z load it and read its columns.

Each chore has one path: config sections go straight to the objects they
configure; ``_fit_v`` trains and saves V (checkpoint, ``alpha``, loss
log) for train-v and expand's refinement, and ``_load_trained_v`` reads
it back; ``regression`` alone reads the ladder at a set of points; both
finite differences of the FP residual use one shifted-view stencil.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import numbers
import time
import zlib
from pathlib import Path

import numpy as np

from . import expand as expand_mod
from . import net
from .density import DensityHistogram, GridSpec, select_collocation
from .models import make_benchmark
from .regression import _extrapolate_attractor, regress_collocation
from .simulate import (SimConfig, _attractor_pool_size, call_in_child, sample_attractor,
                       simulate_ensemble)
from .train_v import QpTrainConfig, TrainedQp, assemble_qp_sets, train_qp
from .train_z import TrainedZ, assemble_z_sets, train_z, transport_coefficients
from .validation import validate_wkb

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

# QpTrainConfig's defaults less the seed, derived per stage; train-z has no residual cap.
_TRAIN_V_DEFAULTS = {k: v for k, v in dataclasses.asdict(QpTrainConfig()).items()
                     if k != "seed"}
_TRAIN_Z_DEFAULTS = {k: v for k, v in _TRAIN_V_DEFAULTS.items() if k != "residual_count"}

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
    "train_v": _TRAIN_V_DEFAULTS,
    "expand": {"level": 0.05, "count": 50, "step": 1e-4, "v_max": 0.4,
               "samples_per_curve": 20, "rel_band": 0.1, "refine_epochs": 50},
    "train_z": dict(_TRAIN_Z_DEFAULTS, y2_regression=3000, y2_transport=3000,
                    y3=4000),
    "evaluate": {"eps": None},
}


class DependencyError(RuntimeError):
    pass


# A value's type must be its default's, or any finite real number where that is a float.
_KINDS = {dict: (dict, "a dict"), list: (list, "a list"), str: (str, "a string"),
          int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite real number")}


def _deep_merge(base, override, where=""):
    """``override`` merged into a copy of ``base``.  A key ``base`` lacks is
    an error, except under benchmark.params, which make_benchmark checks;
    so is a value whose type is not its default's (see ``_KINDS``) or a bool."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        name = where + key
        if key not in out:
            raise ValueError(f"unknown config key {name!r}")
        kind = _KINDS.get(type(out[key]))
        if kind and (isinstance(val, bool) or not isinstance(val, kind[0])
                     or kind[0] is numbers.Real and not abs(val) < np.inf):
            raise ValueError(f"config key {name!r} must be {kind[1]}")
        if isinstance(out[key], dict) and name != "benchmark.params":
            out[key] = _deep_merge(out[key], val, name + ".")
        else:
            out[key] = copy.deepcopy(val)
    return out


def _numbers(value, kind=numbers.Real, low=-np.inf):
    """Whether ``value`` is a list of finite ``kind`` (never bool), each at least ``low``."""
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) and abs(v) < np.inf and v >= low
        for v in value)


class RunConfig:
    """Normalized run configuration (user dict deep-merged into defaults)."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ValueError("a config must be a dict")
        if data.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {data.get('version')}")
        self.data = _deep_merge(DEFAULT_CONFIG, data)
        self.validate()

    def __getitem__(self, key):
        return self.data[key]

    def validate(self):
        """Reject, before any stage runs, settings that a stage would fail on."""
        d = self.data
        n = self.system().dim_state
        at = {"seed": d["seed"], **{f"{s}.{k}": v for s, part in d.items()
                                    if isinstance(part, dict) for k, v in part.items()}}
        for name in ("grid.lower", "grid.upper"):
            if not _numbers(at[name]):
                raise ValueError(f"{name} must be a list of finite real numbers")
        if not _numbers(at["grid.bins"], numbers.Integral, 1):
            raise ValueError("grid.bins must be a list of integers of at least 1")
        grid = self.grid()
        if grid.dim != n:
            raise ValueError("grid dimensions do not match the benchmark")
        for name in ("sim.x0", "attractor.x0"):
            if not (at[name] is None or _numbers(at[name]) and len(at[name]) == n):
                raise ValueError(f"{name} must be null or a list of {n} finite real numbers")
        ladder = d["ladder"]
        if len(ladder) <= 3 or not _numbers(ladder) or not ladder[0] > 0 \
                or any(b >= a for b, a in zip(ladder, ladder[1:])):
            raise ValueError("ladder must be > 3 strictly increasing positive levels")
        SimConfig(**d["sim"], epsilon=ladder[0], seed=0,
                  domain=(grid.lower_arr, grid.upper_arr)).validate(n)
        if d["evaluate"]["eps"] is None:
            d["evaluate"]["eps"] = at["evaluate.eps"] = ladder[0]
        for name in ("attractor.dt", "attractor.collect_time", "expand.step", "expand.level",
                     "expand.rel_band", "evaluate.eps"):
            if not (isinstance(at[name], numbers.Real) and 0 < at[name] < np.inf):
                raise ValueError(f"{name} must be a finite positive number")
        if not at["expand.v_max"] > at["expand.level"]:
            raise ValueError("expand.v_max must exceed expand.level")
        if not at["attractor.burn_in"] >= 0:
            raise ValueError("attractor.burn_in must be at least 0")
        rc = at["train_v.residual_count"]
        if not (rc is None or _numbers([rc], numbers.Integral, 1)):
            raise ValueError("train_v.residual_count must be null or an integer of at least 1")
        for name, low in (("seed", 0), ("attractor.count", 1), ("collocation.m_points", 1),
                          ("collocation.min_count", 1), ("expand.count", 1),
                          ("expand.samples_per_curve", 1),
                          ("expand.refine_epochs", 0), ("train_z.y2_regression", 1),
                          ("train_z.y2_transport", 1), ("train_z.y3", 1)):
            if at[name] < low:  # an integer, as _deep_merge checked
                raise ValueError(f"{name} must be an integer of at least {low}")
        for name, high in (("collocation.traj_fraction", 1.0),
                           ("collocation.far_field_percentile", 100.0)):
            if not 0.0 <= at[name] <= high:
                raise ValueError(f"{name} must lie in [0, {high:g}]")
        att = d["attractor"]
        pool = _attractor_pool_size(att["burn_in"], att["collect_time"], att["dt"])
        if att["count"] > pool:
            raise ValueError(f"attractor count {att['count']} exceeds the {pool} available "
                             "after the burn-in")
        for section in ("train_v", "train_z"):
            w = d[section]["widths"]
            if not (w is None or _numbers(w, numbers.Integral, 1) and len(w) >= 2
                    and w[0] == n and w[-1] == 1):
                raise ValueError(f"{section}.widths must be null or a list of positive "
                                 f"integers from the state dimension {n} to 1")
            self.train_cfg(section, seed=0).validate()

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
        parent, keys, _ = _STAGE_TABLE[stage]
        payload = {key: self.data[key] for key in keys}
        blob = json.dumps(payload, sort_keys=True)
        if parent is not None:
            blob += self.stage_hash(parent)
        return hashlib.sha256(blob.encode()).hexdigest()


class RunManifest:
    """Stage completion markers, output hashes and scalar results; a
    ``manifest.json`` that is not a deepwkb manifest raises ValueError."""

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.path = self.outdir / "manifest.json"
        self.data = {"version": 1, "stages": {}, "results": {}}
        if not self.path.exists():
            return
        try:
            self.data = json.loads(self.path.read_text())
            if all(isinstance(self.data[key], dict) for key in ("stages", "results")):
                return
        except (ValueError, KeyError, TypeError):
            pass
        raise ValueError(f"{self.path} is not a deepwkb manifest")

    def save(self):
        self.outdir.mkdir(parents=True, exist_ok=True)
        with net.write_atomically(self.path) as fh:
            fh.write((json.dumps(self.data, sort_keys=True, indent=2) + "\n").encode())

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


def _write_csv(path, names, columns, fmt="%.17g"):
    """One header row of ``names``, then one comma-separated row per index
    of ``columns`` (1-D arrays or 2-D blocks, side by side).  ``%.17g``
    round-trips float64 and prints integral values without a decimal point."""
    np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",",
               header=",".join(names), comments="")


def _coord_names(dim):
    return [f"x{i}" for i in range(dim)]


def _hist_name(i):
    return f"hist_{i:02d}.dwkbhist"


def _stage_simulate(cfg: RunConfig, outdir: Path):
    """Sample the attractor and simulate the noise ladder into histograms.

    The attractor's zero-noise RK4 run does not depend on the ensemble,
    so it is integrated in a forked child beside the level workers.
    Nothing is written unless both succeed.
    """
    system = cfg.system()
    grid = cfg.grid()
    sim = cfg.data["sim"]
    att = cfg.data["attractor"]

    x0 = att["x0"] if att["x0"] is not None else 0.5 * (grid.lower_arr + grid.upper_arr)
    ladder = cfg.data["ladder"]
    hists = [DensityHistogram(grid, eps) for eps in ladder]
    levels = [SimConfig(**sim, epsilon=eps, seed=_derive_seed(cfg["seed"], "simulate", i),
                        domain=(grid.lower_arr, grid.upper_arr))
              for i, eps in enumerate(ladder)]
    with call_in_child(sample_attractor, system, **dict(att, x0=x0),
                       seed=_derive_seed(cfg["seed"], "attractor")) as attractor:
        summary = simulate_ensemble(system, levels, [h.add_batch for h in hists])
        points = attractor()
    np.save(outdir / "attractor.npy", points)
    outputs = ["attractor.npy"]
    for i, hist in enumerate(hists):
        hist.to_file(outdir / _hist_name(i))
        outputs.append(_hist_name(i))
    info = {"per_eps": [{"eps": eps, **counts} for eps, counts in zip(ladder, summary.per_level)]}
    return outputs, info


def _load_hists(cfg, outdir):
    return [DensityHistogram.from_file(outdir / _hist_name(i))
            for i in range(len(cfg.data["ladder"]))]


def _stage_regress(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    hists = _load_hists(cfg, outdir)
    coll = cfg.data["collocation"]
    points = select_collocation(cfg.grid(), hists, coll["m_points"],
                                traj_fraction=coll["traj_fraction"],
                                seed=_derive_seed(cfg["seed"], "collocation"))
    table, threshold = regress_collocation(
        hists, points, (system.dim_state, system.attractor_dim),
        min_count=coll["min_count"], far_field_percentile=coll["far_field_percentile"])
    kept = table[table["used_rows"] > 0]
    if not kept.size:
        raise ValueError("no regression results to export")
    np.save(outdir / "regression.npy", table)
    fields = ["v_hat", "log_z0_hat", "slope", "rss_rescaled", "dof", "reliable", "se_v",
              "se_log_z0"]
    _write_csv(outdir / "regression.csv", _coord_names(system.dim_state) + fields,
               [kept["point"]] + [kept[name] for name in fields])
    return ["regression.npy", "regression.csv"], {
        "points": table.size, "regressed": kept.size,
        "excluded": table.size - kept.size, "far_field_threshold": threshold,
    }


def _stage_validate(cfg: RunConfig, outdir: Path):
    table = np.load(outdir / "regression.npy")
    # validate_wkb reads the rows' reliable, dof and rss_rescaled as attributes
    report = validate_wkb(table.view(np.recarray), dof=len(cfg.data["ladder"]) - 3)
    report.write(outdir / "validation.txt")
    reliable = table[table["reliable"] == 1]
    _write_csv(outdir / "rss.csv", _coord_names(table["point"].shape[1]) + ["rss"],
               [reliable["point"], reliable["rss_rescaled"]])
    verdict = "holds" if report.passed else "does not hold"
    return ["validation.txt", "rss.csv"], {
        "wkb": verdict, "p_value": report.p_value,
        "ks_statistic": report.ks_statistic, "dof": report.dof,
        "points_tested": report.n_tested,
    }


def _fit_v(cfg: RunConfig, outdir: Path, system, label, name, expanded=None, initial=None,
           **changes):
    """Train V on the run's sets (plus the ``expanded`` (points, v) pair)
    from ``initial`` or fresh parameters, by train_v seeded from ``label``
    with ``changes``; save checkpoint_<name>.dwkbnet, with alpha, and
    trainlog_<name>.csv.  Returns (those names, the manifest info: alpha
    and the rejected Adam steps per loss kind)."""
    tcfg = dataclasses.replace(cfg.train_cfg("train_v", _derive_seed(cfg["seed"], label)),
                               **changes)
    sets = assemble_qp_sets(np.load(outdir / "attractor.npy"),
                            np.load(outdir / "regression.npy"), tcfg, expanded=expanded)
    trained = train_qp(sets, tcfg, system, initial=initial)
    outputs = [f"checkpoint_{name}.dwkbnet", f"trainlog_{name}.csv"]
    net.save_checkpoint(outdir / outputs[0], trained.params,
                        extra=json.dumps({"alpha": trained.alpha}).encode())
    _write_train_log(outdir / outputs[1], trained.log)
    return outputs, {"alpha": trained.alpha, "rejected_steps": trained.rejected}


def _stage_train_v(cfg: RunConfig, outdir: Path):
    return _fit_v(cfg, outdir, cfg.system(), "train_v", "v")


def _write_train_log(path, log):
    _write_csv(path, ["epoch", "L1", "L2", "L3"], [np.reshape(log, (-1, 4))], fmt="%.10g")


def _load_trained_v(outdir, refined=True) -> TrainedQp:
    """Train-v's network, or the one expand refined when ``refined`` and
    the manifest records it among expand's outputs."""
    expand = RunManifest(outdir).data["stages"].get("expand", {"outputs": {}})
    name = "checkpoint_v_refined.dwkbnet"
    if not refined or name not in expand["outputs"]:
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
    arr = np.array([(ci, st.x, st.v, st.log_z)
                    for ci, curve in enumerate(curves) for st in curve.states],
                   dtype=[("curve", "i8"), ("point", "f8", (n,)), ("v", "f8"), ("log_z", "f8")])
    if not arr.size:
        raise ValueError("no curve samples to export")
    np.save(outdir / "curves.npy", arr)
    np.save(outdir / "curve_seeds.npy", np.asarray([s.x for s in seeds]))
    _write_csv(outdir / "expanded.csv", _coord_names(n) + ["v", "origin"],
               [arr["point"], arr["v"]], fmt=",".join(["%.17g"] * (n + 1)) + ",characteristic")
    reasons = sorted(set(c.reason for c in curves))
    outputs = ["curves.npy", "curve_seeds.npy", "expanded.csv"]
    info = {
        "curves": len(curves), "samples": arr.size,
        "max_energy_drift": max((c.max_energy_drift for c in curves), default=0.0),
        "termination_reasons": reasons,
    }

    # Continue training V on the expanded set (curriculum: start from the
    # learned parameters, artificial targets drop out in favor of curves).
    if e["refine_epochs"] > 0:
        names, refined = _fit_v(
            cfg, outdir, system, "refine_v", "v_refined", expanded=(arr["point"], arr["v"]),
            initial=trained.params, epochs=e["refine_epochs"],
            fine_tune_epochs=max(1, e["refine_epochs"] // 5))
        outputs += names
        info.update(refined)
    return outputs, info


def _stage_train_z(cfg: RunConfig, outdir: Path):
    system = cfg.system()
    table = np.load(outdir / "regression.npy")
    trained_v = _load_trained_v(outdir)

    # Attractor targets by extrapolation to eps = 0.
    attr_pts, attr_z0 = _extrapolate_attractor(
        _load_hists(cfg, outdir), np.load(outdir / "attractor.npy"),
        (system.dim_state, system.attractor_dim), min_count=cfg.data["collocation"]["min_count"])
    if not attr_z0.size:
        raise RuntimeError("no attractor point has enough data for the eps->0 extrapolation")

    # Transported prefactor along the stored curves: the seed value comes
    # from the nearest reliable regression point.
    curves = np.load(outdir / "curves.npy")
    seeds = np.load(outdir / "curve_seeds.npy")
    rel = table[table["reliable"] == 1]
    dist = np.linalg.norm(rel["point"][None, :, :] - seeds[:, None, :], axis=2)
    z_init = np.exp(rel["log_z0_hat"])[np.argmin(dist, axis=1)]
    transported = (curves["point"], z_init[curves["curve"]] * np.exp(curves["log_z"]))

    zcfg = cfg.train_cfg("train_z", _derive_seed(cfg["seed"], "train_z"))
    sets = assemble_z_sets((attr_pts, attr_z0), table, transported, cfg.data["train_z"],
                           _derive_seed(cfg["seed"], "z_sets"))
    trained_z = train_z(sets, zcfg, system, trained_v)
    net.save_checkpoint(outdir / "checkpoint_z.dwkbnet", trained_z.params)
    _write_train_log(outdir / "trainlog_z.csv", trained_z.log)
    return ["checkpoint_z.dwkbnet", "trainlog_z.csv"], {
        "attractor_targets": attr_z0.size,
        "transported_points": int(curves.shape[0]),
        "rejected_steps": trained_z.rejected,
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


def _stencil(arr, axis, combine):
    """Zero on the two edge layers of ``axis``; on the interior nodes,
    ``combine`` of the views of ``arr`` shifted up, unshifted and down."""
    def along(part):
        return tuple(part if k == axis else slice(None) for k in range(arr.ndim))

    out = np.zeros_like(arr)
    out[along(slice(1, -1))] = combine(arr[along(slice(2, None))], arr[along(slice(1, -1))],
                                       arr[along(slice(None, -2))])
    return out


def _second_diff(arr, axis, h):
    return _stencil(arr, axis, lambda up, mid, down: (up - 2.0 * mid + down) / h**2)


def _first_diff(arr, axis, h):
    return _stencil(arr, axis, lambda up, mid, down: (up - down) / (2.0 * h))


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
    _write_csv(path, _coord_names(grid.dim) + ["value"],
               [grid.centers(np.arange(grid.n_cells)), np.ravel(values)])


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


# Stage -> (parent stage, config sections it reads, implementation), in
# run order.  A stage's hash covers its sections, chained through its parent's.
_STAGE_TABLE = {
    "simulate": (None, ("seed", "benchmark", "ladder", "grid", "sim", "attractor"),
                 _stage_simulate),
    "regress": ("simulate", ("collocation",), _stage_regress),
    "validate": ("regress", (), _stage_validate),
    "train-v": ("regress", ("train_v",), _stage_train_v),
    "expand": ("train-v", ("expand",), _stage_expand),
    "train-z": ("expand", ("train_z",), _stage_train_z),
    "evaluate": ("train-z", ("evaluate",), _stage_evaluate),
    "fp-residual": ("evaluate", (), _stage_fp_residual),
}
STAGES = list(_STAGE_TABLE)


def run_stage(stage, cfg: RunConfig, manifest: RunManifest, force=False) -> RunManifest:
    """Execute exactly one stage; idempotent re-runs are skipped.

    Raises DependencyError when an upstream stage has not completed, and
    refuses hash mismatches (stale upstream) unless forced.  The files
    the manifest recorded for the stage's previous run are deleted first.
    """
    if stage not in _STAGE_TABLE:
        raise ValueError(f"unknown stage {stage!r}; stages: {STAGES}")
    parent, _, stage_func = _STAGE_TABLE[stage]
    if parent is not None:
        if parent not in manifest.data["stages"]:
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
    outputs, info = stage_func(cfg, manifest.outdir)
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
