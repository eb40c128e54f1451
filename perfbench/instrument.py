"""Where the tracer hooks into each layer, and the per-layer metrics.

Callers look the functions up in three ways, and each is wrapped there:
``pipeline`` imports the stage kernels and ``make_benchmark`` by name,
reaches ``net.*`` and ``expand_mod.*`` through the module (as do
``train_v`` and ``train_z`` for ``net.*``), and ``qp_loss``, ``z_loss``,
``regress_point`` and ``transport_coefficients`` are module globals of
their callers.  The histogram sink and its file I/O are class attributes.
``models.make_benchmark``, which the workloads call for their own
systems, is wrapped as well; every system it returns counts its drift
and Jacobian calls.
"""

from __future__ import annotations

from deepwkb import expand as expand_mod
from deepwkb import models, net, pipeline, regression
from deepwkb import train_v as train_v_mod
from deepwkb import train_z as train_z_mod
from deepwkb.density import DensityHistogram
from workloads import RUN_STAGES

# network kernel -> metric stem
NET_KERNELS = {
    "forward": "forward",
    "grad_params": "grad_params",
    "grad_input": "grad_input",
    "hessian_input": "hessian_input",
    "grad_params_of_directional_input_grad": "dirgrad",
    "adam_step": "adam_step",
}
CURVE_REASONS = ("reached_v_max", "left_domain", "step_limit", "solver_failure", "stalled")


def _instrument_system(tracer, system):
    counts = tracer.counts

    def rows(args, result, token):
        counts["models.drift_rows"] += 1 if result.ndim == 1 else result.shape[0]

    system.drift = tracer.wrapped("models.drift", system.drift, after=rows)
    system.drift_jacobian = tracer.wrapped("models.jacobian", system.drift_jacobian)
    return system


def install(tracer):
    """Wrap every layer's public functions; ``tracer.uninstall`` undoes it."""
    counts = tracer.counts
    patch = tracer.patch

    def sim_counts(args, summary, token):
        counts["simulate.traj_steps"] += summary.steps_taken
        counts["simulate.samples"] += summary.samples_emitted
        counts["simulate.aborted"] += summary.aborted_trajectories
        counts["simulate.escapes"] += summary.escapes

    def curve_counts(args, curves, token):
        counts["expand.curves"] += len(curves)
        for c in curves:
            counts["expand.curve_samples"] += len(c.states)
            counts[f"expand.curves_{c.reason}"] += 1

    for owner in (pipeline, models):
        patch(owner, "make_benchmark", "models.make_benchmark",
              after=lambda args, system, token: _instrument_system(tracer, system))
    patch(pipeline, "simulate_ensemble", "simulate.simulate_ensemble", after=sim_counts)
    patch(pipeline, "sample_attractor", "simulate.sample_attractor")
    patch(DensityHistogram, "add_batch", "density.add_batch")
    patch(DensityHistogram, "to_file", "density.hist_io")
    patch(DensityHistogram, "from_file", "density.hist_io")
    patch(pipeline, "select_collocation", "density.select_collocation")
    patch(pipeline, "regress_collocation", "regression.regress_collocation")
    patch(regression, "regress_point", "regression.regress_point")
    patch(pipeline, "validate_wkb", "validation.validate_wkb")
    count_rejections(tracer)
    for attr, stem in NET_KERNELS.items():
        if attr != "adam_step":
            patch(net, attr, f"net.{stem}")
    patch(net, "save_checkpoint", "net.checkpoint_io")
    patch(net, "load_checkpoint", "net.checkpoint_io")
    patch(pipeline, "train_qp", "train_v.train_qp")
    patch(train_v_mod, "train_qp", "train_v.train_qp")
    patch(pipeline, "train_z", "train_z.train_z")
    patch(train_z_mod, "train_z", "train_z.train_z")
    _patch_by_kind(tracer, train_v_mod, "qp_loss", "train_v.qp_loss")
    _patch_by_kind(tracer, train_z_mod, "z_loss", "train_z.z_loss")
    patch(train_z_mod, "transport_coefficients", "train_z.transport_coefficients")
    patch(pipeline, "transport_coefficients", "expand.transport")
    patch(expand_mod, "seed_characteristics", "expand.seed_characteristics")
    patch(expand_mod, "trace_curves", "expand.trace_curves", after=curve_counts)
    patch(pipeline, "evaluate_wkb_grid", "pipeline.evaluate_wkb_grid")
    patch(pipeline, "fp_residual_grid", "pipeline.fp_residual_grid")


def _patch_by_kind(tracer, module, attr, stem):
    """Loss functions get one span name per loss kind (L1, L2, L3)."""
    fn = getattr(module, attr)

    def by_kind(kind, *args, **kwargs):
        return tracer.call(f"{stem}.{kind}", fn, kind, *args, **kwargs)

    tracer.replace(module, attr, by_kind)


def count_rejections(tracer):
    """Wrap ``net.adam_step`` alone, counting rejected steps into
    ``net.adam_rejected``: ``train_qp``/``train_z`` discard their Adam
    states, so the count is read from each state around each step.  The
    untraced rounds wrap nothing else."""
    def rejections(args, result, token):
        tracer.counts["net.adam_rejected"] += args[0].rejected - token

    tracer.patch(net, "adam_step", "net.adam_step",
                 before=lambda args: args[0].rejected, after=rejections)


def per_layer_metrics(tracer):
    """Per-layer metric name -> value from the spans and counters of one
    traced round; a layer that did not run reports zeros."""
    tot = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def rate(num, seconds):
        return num / seconds if seconds > 0 else 0.0

    m = {}
    for stage in RUN_STAGES:  # spans the worker records around run_stage
        m[f"pipeline.{stage.replace('-', '_')}_s"] = incl(f"pipeline.stage.{stage}")
    m["pipeline.evaluate_wkb_grid_s"] = incl("pipeline.evaluate_wkb_grid")
    m["pipeline.fp_residual_grid_s"] = incl("pipeline.fp_residual_grid")

    steps = counts["simulate.traj_steps"]
    m["simulate.simulate_ensemble_s"] = own("simulate.simulate_ensemble")
    m["simulate.traj_steps"] = steps
    m["simulate.traj_steps_per_s"] = rate(steps, incl("simulate.simulate_ensemble"))
    for key in ("samples", "aborted", "escapes"):
        m[f"simulate.{key}"] = counts[f"simulate.{key}"]
    m["simulate.sample_attractor_s"] = incl("simulate.sample_attractor")

    m["models.drift_calls"] = calls("models.drift")
    m["models.drift_rows"] = counts["models.drift_rows"]
    m["models.drift_s"] = incl("models.drift")
    m["models.jacobian_calls"] = calls("models.jacobian")

    m["density.add_batch_s"] = incl("density.add_batch")
    m["density.add_batch_calls"] = calls("density.add_batch")
    m["density.select_collocation_s"] = incl("density.select_collocation")
    m["density.hist_io_s"] = incl("density.hist_io")

    points = calls("regression.regress_point")
    m["regression.regress_point_calls"] = points
    m["regression.regress_point_s"] = incl("regression.regress_point")
    m["regression.points_per_s"] = rate(points, incl("regression.regress_collocation"))

    m["validation.validate_wkb_s"] = incl("validation.validate_wkb")

    for stem in NET_KERNELS.values():
        n, seconds = calls(f"net.{stem}"), incl(f"net.{stem}")
        m[f"net.{stem}_calls"] = n
        m[f"net.{stem}_s"] = seconds
        m[f"net.{stem}_ms"] = 1e3 * seconds / n if n else 0.0
    m["net.adam_rejected"] = counts["net.adam_rejected"]
    m["net.checkpoint_io_s"] = incl("net.checkpoint_io")

    for layer, loss, train in (("train_v", "qp_loss", "train_v.train_qp"),
                               ("train_z", "z_loss", "train_z.train_z")):
        batches = 0
        for kind in ("L1", "L2", "L3"):
            m[f"{layer}.{loss}_{kind}_s"] = incl(f"{layer}.{loss}.{kind}")
            batches += calls(f"{layer}.{loss}.{kind}")
        m[f"{layer}.batches"] = batches
        m[f"{layer}.batches_per_s"] = rate(batches, incl(train))
    m["train_z.transport_coefficients_calls"] = calls("train_z.transport_coefficients")
    m["train_z.transport_coefficients_s"] = incl("train_z.transport_coefficients")

    m["expand.seed_characteristics_s"] = incl("expand.seed_characteristics")
    m["expand.trace_curves_s"] = incl("expand.trace_curves")
    m["expand.curves"] = counts["expand.curves"]
    m["expand.curve_samples"] = counts["expand.curve_samples"]
    m["expand.transport_calls"] = calls("expand.transport")
    for reason in CURVE_REASONS:
        m[f"expand.curves_{reason}"] = counts[f"expand.curves_{reason}"]
    return m
