"""Training of the prefactor network.

Z0 satisfies the first-order transport equation

    b . grad Z0 + c Z0 = 0,
    b = f + A grad V,
    c = div f + 1/2 sum_ij a^ij d^2_ij V,

where A = (a^ij) is the system's constant diffusion matrix.  The
coefficients are evaluated with the trained, alpha-corrected
quasi-potential, which stays frozen while Z0 trains: ``train_z``
computes them once per Y3 point before the first epoch, in full batches
of BATCH_SIZE rows, and the residual batches slice them.
Targets come from two sources: linear extrapolation of the rescaled
densities to eps = 0 on the attractor (Y1), and the exponential of the
regression intercept near the attractor together with
characteristic-transported values (Y2).  Y3 drives the transport
residual.  Accuracy far from the attractor is deliberately not chased:
exp(-V/eps) suppresses whatever error lives there.  Point sets are
(B, n) batches, and the coefficients and losses are evaluated a batch at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import net
from .models import _philox
from .net import MlpParams
from .train_v import (BATCH_SIZE, QpTrainConfig, _subsample, alternating_adam, fit_loss,
                      new_params)

__all__ = [
    "ZTrainingSets",
    "TrainedZ",
    "transport_coefficients",
    "assemble_z_sets",
    "z_loss",
    "train_z",
]


@dataclass
class ZTrainingSets:
    y1: np.ndarray            # (M1, n) attractor points
    y1_targets: np.ndarray    # (M1,) extrapolated Z0
    y2: np.ndarray            # (M2, n)
    y2_targets: np.ndarray    # (M2,)
    y3: np.ndarray            # (M3, n) residual points

    def validate(self):
        if self.y1.shape[0] == 0:
            raise ValueError("attractor set Y1 is empty")
        if not (np.all(np.isfinite(self.y1_targets)) and np.all(np.isfinite(self.y2_targets))):
            raise ValueError("prefactor targets must be finite")


@dataclass
class TrainedZ:
    params: MlpParams
    log: list = field(default_factory=list)

    def z(self, x):
        return net.forward(self.params, x)


def transport_coefficients(system, trained, x):
    """Transport-operator coefficients (b, c) on a (B, n) batch x, using
    the trained V: b is (B, n) and c is (B,).

    ``trained`` needs batched grad_v/hess_v accessors (a TrainedQp, or
    any analytic stand-in with the same surface).
    """
    xb = np.asarray(x, dtype=float)
    b = system.drift(xb) + np.dot(trained.grad_v(xb), system.a.T)
    c = system.drift_divergence(xb) + 0.5 * np.einsum("ij,bij->b", system.a, trained.hess_v(xb))
    return b, c


def assemble_z_sets(attractor, table, curves, counts, seed) -> ZTrainingSets:
    """Build (Y1, Y2, Y3) for the prefactor.

    ``attractor`` is a (points, z0_targets) pair from the eps -> 0
    extrapolation.  Y2 merges the reliable prefactors of the regression
    table (see ``regression``) with characteristic-transported values
    (``curves``, a (points, z0) pair of arrays, like ``attractor``).  Y3
    reuses the coordinates of the table's fitted points, which are already
    partly trajectory-weighted, partly uniform.
    """
    rng = _philox(seed)
    attr_pts, attr_z0 = attractor
    usable = table[table["reliable"] == 1]
    reg_pts, reg_z0 = _subsample(rng, counts.get("y2_regression"),
                                 usable["point"], np.exp(usable["log_z0_hat"]))
    cur_pts, cur_z0 = _subsample(rng, counts.get("y2_transport"), *curves)
    (y3,) = _subsample(rng, counts.get("y3"), table["point"][table["used_rows"] > 0])

    sets = ZTrainingSets(
        y1=attr_pts,
        y1_targets=attr_z0,
        y2=np.concatenate([reg_pts, cur_pts]),
        y2_targets=np.concatenate([reg_z0, cur_z0]),
        y3=y3,
    )
    sets.validate()
    return sets


def z_loss(kind, params_z: MlpParams, batch, system, trained_v):
    """Loss value and flat gradient for the prefactor network.

    L1 and L2 are the hinged target fit of ``fit_loss``; L3 is the squared
    transport residual (b . grad Z + c Z)^2 with coefficients frozen at
    the trained V, whose gradient is one sweep of the directional kernel
    with the c Z term as its output seed.  The L3 batch is a (points, b,
    c) triple, or bare points whose coefficients are then computed here.
    Each kind traces the network once, and each gradient carries the
    weight penalty once.
    """
    if kind in ("L1", "L2"):
        value, grad = fit_loss(params_z, *batch)
    elif kind == "L3":
        if isinstance(batch, tuple):
            x, b, c = batch
        else:
            x = batch
            b, c = transport_coefficients(system, trained_v, x)
        acts = net.trace(params_z, x)
        z = acts[-1][:, 0]
        gz = net.grad_input(params_z, acts)
        resid = np.einsum("bi,bi->b", b, gz) + c * z
        value = float(np.mean(resid**2))
        coeff = 2.0 * resid / z.shape[0]
        grad = net.grad_params_of_directional_input_grad(params_z, acts, b, coeff,
                                                         upstream=coeff * c)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return value, net._add_weight_penalty(params_z, grad)


def _frozen_coefficients(system, trained_v, points):
    """Transport coefficients (b, c) at every row of ``points``, computed in
    chunks of exactly BATCH_SIZE rows, the last chunk wrapping around the
    set as the epoch streams do.

    Every training batch has BATCH_SIZE rows, and a row's last bits
    depend on the row count of the matrix products it passes through, so
    equal chunks give the coefficients a batch would compute itself.  The
    chunks also bound the Hessian's per-layer tangent arrays.
    """
    m = points.shape[0]
    b, c = np.empty((m, points.shape[1])), np.empty(m)
    for start in range(0, m, BATCH_SIZE):
        rows = np.arange(start, start + BATCH_SIZE) % m
        chunk_b, chunk_c = transport_coefficients(system, trained_v, points[rows])
        keep = min(BATCH_SIZE, m - start)
        b[start:start + keep], c[start:start + keep] = chunk_b[:keep], chunk_c[:keep]
    return b, c


def train_z(sets: ZTrainingSets, cfg: QpTrainConfig, system, trained_v) -> TrainedZ:
    """Same alternating schedule as the quasi-potential; fine-tuning keeps
    the attractor targets and the transport residual.  The transport
    coefficients on Y3 are computed once, before the first epoch."""
    cfg.validate()
    sets.validate()
    params = new_params(cfg, system)
    b3, c3 = _frozen_coefficients(system, trained_v, sets.y3)
    members = [
        ("L1z", sets.y1.shape[0], lambda idx: (sets.y1[idx], sets.y1_targets[idx]),
         lambda p, b: z_loss("L1", p, b, system, trained_v), cfg.lr1),
        ("L2z", sets.y2.shape[0], lambda idx: (sets.y2[idx], sets.y2_targets[idx]),
         lambda p, b: z_loss("L2", p, b, system, trained_v), cfg.lr2),
        ("L3z", sets.y3.shape[0], lambda idx: (sets.y3[idx], b3[idx], c3[idx]),
         lambda p, b: z_loss("L3", p, b, system, trained_v), cfg.lr3),
    ]
    log, _ = alternating_adam(params, members, cfg, cfg.seed)
    return TrainedZ(params=params, log=log)
