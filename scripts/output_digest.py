"""Print the sha256 of every deterministic output, one line per output.

    python3 scripts/output_digest.py [--root DIR] [--out DIR] > digest.txt

It digests the checkout at ``--root`` (its ``src/``, ``tests/`` and
``perfbench/``), by default the checkout this script lives in.  Run one
copy of it on two checkouts on the same machine and ``diff`` the two
prints:

    python3 scripts/output_digest.py --root ../parent > parent.txt
    python3 scripts/output_digest.py > change.txt

A change that claims bitwise-identical outputs must print the same
lines.  These outputs are hashed:

* every file of ``run_all`` on the OU mini config of
  ``tests/test_pipeline.py`` (``timing.log`` holds wall times and is left
  out);
* every file of that config's simulate stage run with one usable core,
  so that its ladder is simulated and binned in this process rather than
  in forked workers; the script stops unless its histograms and
  attractor points equal those of the ``run_all`` above;
* every file of simulate -> regress -> validate on
  ``perfbench/workloads.figure8_config(1)``;
* every file of simulate on a shrunken copy of that config whose box cuts
  through the attractor, so that every level escapes and the rollback
  path runs, and the digest of its per-level escape counts;
* the trained V and Z parameters, ``alpha`` and both loss logs of the
  ``paper-train`` workload on seeds 1-3; the script trains seed 1 a
  second time with one usable core, so that one process evaluates both
  row blocks of every batch, and stops unless its parameters and logs
  equal those of the first training, which ran on two ranks on a
  machine with two or more cores;
* figure-eight characteristics seeded and traced on the exact
  ``V = mu H^2`` with its transport coefficient, once in a box that holds
  them and once in a box that cuts them: the seeds, the sample states,
  the termination reasons, the seed energies and the largest drifts.
  The exact coefficient vanishes, so a third group traces them in the
  first box with ``c(x) = |x|^2``, whose ``log_z`` is the ``-h c`` sum
  itself rather than rounding noise;
* ``fp_residual_grid`` on a 2-d grid with correlated noise, so that both
  difference stencils and the mixed term run (the OU mini run is 1-d).
* the drift, Jacobian, divergence, ``a`` and dimensions of every system
  in ``models.BENCHMARKS`` at its default parameters, on a fixed batch of
  64 states; the script builds them through ``make_benchmark`` alone, so
  it digests checkouts whose model layer is built differently.

It also prints the trained networks' errors in full precision, so that a
change that moves outputs can report its accuracy from the same print:
``train_v.v_err`` and ``train_z.z_err`` of each ``paper-train`` seed (the
RMS errors against ``|x|^2`` and ``1/pi`` on the 41 x 41 grid of the
workload's check), and the OU mini run's trained V against ``x^2`` at the
cell centres with ``|x| <= 0.5`` (as the ``ou1d-pipeline`` workload
scores it).  Equal outputs print equal errors.

BLAS runs on one thread, as in the benchmark, since the last bits of a
matrix product may depend on the thread count.  Run directories go under
``--out`` (a temporary directory by default).  The whole print takes about
20 s on a 2-core machine.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# The checkout's own modules (deepwkb, tests/conftest.py, perfbench) are
# imported inside the functions, once ``main`` has put --root on the path.

PAPER_TRAIN_SEEDS = (1, 2, 3)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_dir_lines(label, outdir):
    return [f"{label}/{f.name} {sha(f.read_bytes())}"
            for f in sorted(Path(outdir).iterdir())
            if f.is_file() and f.name != "timing.log"]


def ou_v_err_line(cfg, outdir):
    """RMS of train-v's V against the exact x^2 at the grid's cell centres
    with |x| <= 0.5."""
    from deepwkb import net

    grid = cfg.grid()
    centers = grid.centers(np.arange(grid.n_cells))[:, 0]
    xs = centers[np.abs(centers) <= 0.5][:, None]
    params, _, extra = net.load_checkpoint(Path(outdir) / "checkpoint_v.dwkbnet")
    v = net.forward(params, xs) / json.loads(extra.decode())["alpha"]
    return f"ou_mini/train_v.v_err {float(np.sqrt(np.mean((v - xs[:, 0] ** 2) ** 2)))!r}"


def in_process_lines(outdir, forked_dir):
    """Run the OU mini simulate stage with ``simulate._usable_cores``
    pinned to 1.  On two or more cores ``forked_dir`` was simulated in
    forked workers; its histograms and attractor points must be equal."""
    from deepwkb import simulate
    from deepwkb.pipeline import RunManifest, run_stage
    from test_pipeline import ou_mini_config

    cores = simulate._usable_cores
    simulate._usable_cores = lambda: 1
    try:
        manifest = run_stage("simulate", ou_mini_config(), RunManifest(outdir))
    finally:
        simulate._usable_cores = cores
    for name in manifest.data["stages"]["simulate"]["outputs"]:
        if (Path(outdir) / name).read_bytes() != (Path(forked_dir) / name).read_bytes():
            raise SystemExit(f"{name} of the in-process simulate differs from the forked one")
    return run_dir_lines("ou_mini-in-process", outdir)


def escaping_lines(outdir):
    """Simulate the figure-eight in a box narrower than its attractor
    (|x| <= 2 against the figure-eight's |x| <= 6 ** 0.5), 50 trajectories
    for 20 time units per level."""
    from deepwkb.pipeline import RunConfig, RunManifest, run_stage
    from workloads import figure8_config

    data = figure8_config(1).data
    cfg = RunConfig(dict(data, grid=dict(data["grid"], lower=[-2.0, -2.5], upper=[2.0, 2.5]),
                         sim=dict(data["sim"], total_time=20.0, n_traj=50)))
    manifest = run_stage("simulate", cfg, RunManifest(outdir))
    escapes = [level["escapes"] for level in manifest.data["stages"]["simulate"]["info"]["per_eps"]]
    if min(escapes) == 0:
        raise SystemExit(f"the escaping run did not escape on every level: {escapes}")
    return run_dir_lines("figure8-escaping", outdir) + [
        f"figure8-escaping/escapes {sha(json.dumps(escapes).encode())}"]


def figure8_curve_lines():
    """Trace 16 characteristics of the figure-eight from the level
    V = 0.06 of the exact V = mu H^2 (mu = 0.5) towards V = 0.3 at
    h = 1e-3, with 10 samples per curve and the exact transport
    coefficient refreshed every 10 steps, as the expand stage does.  In
    the box [-3, 3]^2 the curves reach V = 0.3 or stall; the box
    [-2, 2] x [-1, 1] cuts most of them.  The group "transport" traces
    them in [-3, 3]^2 with the coefficient |x|^2 instead."""
    from deepwkb import expand
    from deepwkb.models import make_benchmark
    from deepwkb.train_z import transport_coefficients
    from conftest import AnalyticQp, figure8_quasipotential

    system = make_benchmark("figure8")
    oracle = AnalyticQp(*figure8_quasipotential(mu=0.5))
    box = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    seeds = expand.seed_characteristics(system, oracle, 0.06, 16, seed=9, domain=box,
                                        rel_band=0.02)
    lines = [f"figure8-curves/seeds "
             f"{sha(b''.join(np.float64([*s.x, *s.p, s.v]).tobytes() for s in seeds))}"]
    cut = (np.array([-2.0, -1.0]), np.array([2.0, 1.0]))

    def exact(x):
        return transport_coefficients(system, oracle, x)[1]

    for label, domain, transport in (("box", box, exact), ("cut", cut, exact),
                                     ("transport", box, lambda x: np.sum(x**2, axis=1))):
        curves = expand.trace_curves(system, seeds, 1e-3, 0.3, domain, 10,
                                     transport=transport, transport_every=10)
        parts = {
            "states": b"".join(np.float64([*st.x, *st.p, st.v, st.log_z, st.s]).tobytes()
                               for c in curves for st in c.states),
            "reasons": ",".join(c.reason for c in curves).encode(),
            "h0": np.float64([c.h0 for c in curves]).tobytes(),
            "max_energy_drift": np.float64([c.max_energy_drift for c in curves]).tobytes(),
        }
        lines += [f"figure8-curves/{label}/{name} {sha(data)}" for name, data in parts.items()]
    return lines


def fp_residual_lines():
    """The FP residual of the density exp(-|x|^2) on 64 x 80 bins of
    [-3, 3] x [-2.5, 2.5] at eps = 0.1, under the figure-eight's drift with
    sigma = [[1, 0], [0.5, 1]], whose diffusion matrix is not diagonal."""
    import dataclasses

    from deepwkb.density import GridSpec
    from deepwkb.models import make_benchmark
    from deepwkb.pipeline import fp_residual_grid

    system = dataclasses.replace(make_benchmark("figure8"),
                                 sigma_constant=np.array([[1.0, 0.0], [0.5, 1.0]]))
    grid = GridSpec((-3.0, -2.5), (3.0, 2.5), (64, 80))
    values = np.exp(-np.sum(grid.centers(np.arange(grid.n_cells)) ** 2, axis=1))
    residual, rel = fp_residual_grid(system, values, grid, 0.1)
    return [f"fp-residual-2d/residual {sha(residual.tobytes())}",
            f"fp-residual-2d/relative_residual {rel!r}"]


def system_lines():
    """Each registered system at its default parameters: its drift,
    Jacobian and divergence on 64 states drawn uniformly from [-2, 2]^n
    by ``np.random.default_rng(0)``, its ``a`` and its two dimensions."""
    from deepwkb.models import BENCHMARKS, make_benchmark

    lines = []
    for name in sorted(BENCHMARKS):
        system = make_benchmark(name)
        x = np.random.default_rng(0).uniform(-2.0, 2.0, size=(64, system.dim_state))
        parts = {
            "drift": system.drift(x), "jacobian": system.drift_jacobian(x),
            "divergence": system.drift_divergence(x), "a": system.a,
            "dims": np.int64([system.dim_state, system.dim_noise]),
        }
        lines += [f"system-{name}/{part} {sha(np.asarray(arr).tobytes())}"
                  for part, arr in parts.items()]
    return lines


def train_paper(seed, workdir):
    """The trained V and Z of the ``paper-train`` workload on ``seed``."""
    from workloads import PaperTrain

    work = PaperTrain(seed, workdir)
    for _, _, op in work.ops():
        op()
    return work.trained_v, work.trained_z


def one_core_check(seed, workdir, trained):
    """Train ``paper-train`` on ``seed`` again with ``simulate._usable_cores``
    pinned to 1; the parameters and loss logs must equal ``trained``'s."""
    from deepwkb import simulate

    cores = simulate._usable_cores
    simulate._usable_cores = lambda: 1
    try:
        again = train_paper(seed, workdir)
    finally:
        simulate._usable_cores = cores
    for net_name, first, second in zip("VZ", trained, again):
        if not (np.array_equal(first.params.flat, second.params.flat) and np.array_equal(
                np.asarray(first.log, dtype=float), np.asarray(second.log, dtype=float),
                equal_nan=True)):
            raise SystemExit(f"paper-train-{seed} {net_name} trained on one core differs")


def paper_train_lines(seed, tv, tz):
    parts = {
        "v_params": tv.params.flat.tobytes(),
        "alpha": np.float64(tv.alpha).tobytes(),
        "v_log": np.asarray(tv.log, dtype=float).tobytes(),
        "z_params": tz.params.flat.tobytes(),
        "z_log": np.asarray(tz.log, dtype=float).tobytes(),
    }
    axis = np.linspace(-1.0, 1.0, 41)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    errors = {
        "train_v.v_err": np.sqrt(np.mean((tv.v(grid) - np.sum(grid**2, axis=1)) ** 2)),
        "train_z.z_err": np.sqrt(np.mean((tz.z(grid) - 1.0 / np.pi) ** 2)),
    }
    return ([f"paper-train-{seed}/{name} {sha(data)}" for name, data in parts.items()]
            + [f"paper-train-{seed}/{name} {float(err)!r}" for name, err in errors.items()])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to digest (default: the one holding this script)")
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for the run directories (default: a temporary one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]
    import deepwkb
    from deepwkb.pipeline import RunManifest, run_all, run_stage
    from test_pipeline import ou_mini_config
    from workloads import figure8_config

    if not Path(deepwkb.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"deepwkb was imported from {deepwkb.__file__}, not from {root}")
    with tempfile.TemporaryDirectory() as tmp:
        base = args.out or Path(tmp)
        base.mkdir(parents=True, exist_ok=True)

        ou_dir, ou_cfg = base / "ou_mini", ou_mini_config()
        run_all(ou_cfg, ou_dir)
        for line in run_dir_lines("ou_mini", ou_dir) + [ou_v_err_line(ou_cfg, ou_dir)]:
            print(line, flush=True)
        for line in in_process_lines(base / "ou_mini-in-process", ou_dir):
            print(line, flush=True)

        f8_dir = base / "figure8"
        cfg, manifest = figure8_config(1), RunManifest(f8_dir)
        for stage in ("simulate", "regress", "validate"):
            run_stage(stage, cfg, manifest)
        for line in run_dir_lines("figure8", f8_dir):
            print(line, flush=True)

        for line in escaping_lines(base / "figure8-escaping"):
            print(line, flush=True)

        for line in figure8_curve_lines() + fp_residual_lines():
            print(line, flush=True)

        for seed in PAPER_TRAIN_SEEDS:
            trained = train_paper(seed, base / f"paper-train-{seed}")
            for line in paper_train_lines(seed, *trained):
                print(line, flush=True)
            if seed == PAPER_TRAIN_SEEDS[0]:
                one_core_check(seed, base / f"paper-train-{seed}-one-core", trained)

        for line in system_lines():
            print(line, flush=True)


if __name__ == "__main__":
    main()
