"""Training of the prefactor network.

Z0 satisfies the first-order transport equation

    b . grad Z0 + c Z0 = 0,
    b = f + A grad V,
    c = div f + 1/2 sum_ij a^ij d^2_ij V,

where A = (a^ij) is the system's constant diffusion matrix.  The
coefficients are evaluated with the trained, alpha-corrected
quasi-potential, which stays frozen while Z0 trains: ``train_z``
computes them once per Y3 point before the first epoch, in full batches
of BATCH_SIZE rows, and the residual term's batches take their rows.
Targets come from two sources: linear extrapolation of the rescaled
densities to eps = 0 on the attractor (Y1), and the exponential of the
regression intercept near the attractor together with
characteristic-transported values (Y2).  Y3 drives the transport
residual, ``train_v.residual_loss`` with direction b and output
coefficient c.  The three terms run on the quasi-potential's schedule.
Accuracy far from the attractor is deliberately not chased: exp(-V/eps)
suppresses whatever error lives there.  Point sets are (B, n) batches,
and the coefficients and losses are evaluated a batch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import net
from .models import _philox
from .net import MlpParams
from .train_v import (BATCH_SIZE, QpTrainConfig, _subsample, alternating_adam, fit_loss,
                      new_params, residual_loss)

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
    rejected: dict = field(default_factory=dict)  # rejected Adam steps per loss kind

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
    the trained V, through ``residual_loss`` with direction b and output
    coefficient c.  The L3 batch is a (points, b, c) triple, or bare
    points whose coefficients are then computed here.  Each kind traces
    the network once, and each gradient carries the weight penalty once.
    """
    if kind in ("L1", "L2"):
        value, grad = fit_loss(params_z, *batch)
    elif kind == "L3":
        x, b, c = batch if isinstance(batch, tuple) else \
            (batch, *transport_coefficients(system, trained_v, batch))
        value, grad = residual_loss(
            params_z, x, lambda _, z, gz: (np.einsum("bi,bi->b", b, gz) + c * z, b, c))
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
    chunks = np.resize(np.arange(m), (-(-m // BATCH_SIZE), BATCH_SIZE))
    parts = [transport_coefficients(system, trained_v, points[rows]) for rows in chunks]
    return tuple(np.concatenate(arrays)[:m] for arrays in zip(*parts))


def train_z(sets: ZTrainingSets, cfg: QpTrainConfig, system, trained_v) -> TrainedZ:
    """The three terms on the quasi-potential's schedule, fine-tuning on the
    attractor targets and the transport residual; the coefficients on Y3
    are computed once, before the first epoch."""
    cfg.validate()
    sets.validate()
    params = new_params(cfg, system)
    b3, c3 = _frozen_coefficients(system, trained_v, sets.y3)

    def loss(kind, p, batch):  # looks z_loss up at each call, so a wrapper sees every batch
        return z_loss(kind, p, batch, system, trained_v)

    terms = [("L1", (sets.y1, sets.y1_targets), cfg.lr1),
             ("L2", (sets.y2, sets.y2_targets), cfg.lr2), ("L3", (sets.y3, b3, c3), cfg.lr3)]
    log, states = alternating_adam(params, terms, loss, cfg, cfg.seed)
    rejected = {kind: state.rejected for (kind, _, _), state in zip(terms, states)}
    return TrainedZ(params=params, log=log, rejected=rejected)
