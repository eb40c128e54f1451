"""Training of the prefactor network.

Z0 satisfies the first-order transport equation

    b . grad Z0 + c Z0 = 0,
    b = f + A grad V,
    c = div f + 1/2 sum_ij a^ij d^2_ij V,

where A = (a^ij) is the system's constant diffusion matrix.  The
coefficients are evaluated with the trained, alpha-corrected
quasi-potential.  Targets come from two sources: linear extrapolation of
the rescaled densities to eps = 0 on the attractor (Y1), and the
exponential of the regression intercept near the attractor together with
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
from .net import MlpParams
from .train_v import QpTrainConfig, alternating_adam, fit_loss, new_params

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
    b = system.drift(xb) + trained.grad_v(xb) @ system.a.T
    c = system.drift_divergence(xb) + 0.5 * np.einsum("ij,bij->b", system.a, trained.hess_v(xb))
    return b, c


def assemble_z_sets(attractor, regressions, curves, counts, seed) -> ZTrainingSets:
    """Build (Y1, Y2, Y3) for the prefactor.

    ``attractor`` is a (points, z0_targets) pair from the eps -> 0
    extrapolation.  Y2 merges reliable regression prefactors with
    characteristic-transported values (``curves`` as a (points, z0) pair
    or None).  Y3 reuses the collocation coordinates, which are already
    half trajectory-weighted, half uniform.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    attr_pts, attr_z0 = attractor
    attr_pts = np.asarray(attr_pts)
    attr_z0 = np.asarray(attr_z0, dtype=float)

    usable = [r for r in regressions if r is not None and r.reliable]
    reg_pts = np.asarray([r.point for r in usable])
    reg_z0 = np.exp(np.asarray([r.log_z0_hat for r in usable]))
    n_reg = min(counts.get("y2_regression", len(usable)), len(usable))
    if n_reg < len(usable):
        keep = rng.choice(len(usable), size=n_reg, replace=False)
        reg_pts, reg_z0 = reg_pts[np.sort(keep)], reg_z0[np.sort(keep)]

    y2_parts, t2_parts = [reg_pts], [reg_z0]
    if curves is not None:
        cur_pts, cur_z0 = (np.asarray(a) for a in curves)
        n_cur = min(counts.get("y2_transport", len(cur_pts)), len(cur_pts))
        if n_cur < len(cur_pts):
            keep = rng.choice(len(cur_pts), size=n_cur, replace=False)
            cur_pts, cur_z0 = cur_pts[np.sort(keep)], cur_z0[np.sort(keep)]
        if len(cur_pts):
            y2_parts.append(cur_pts)
            t2_parts.append(cur_z0)

    all_pts = np.asarray([r.point for r in regressions if r is not None])
    n_res = min(counts.get("y3", len(all_pts)), len(all_pts))
    if n_res < len(all_pts):
        keep = rng.choice(len(all_pts), size=n_res, replace=False)
        y3 = all_pts[np.sort(keep)]
    else:
        y3 = all_pts

    sets = ZTrainingSets(
        y1=attr_pts,
        y1_targets=attr_z0,
        y2=np.concatenate(y2_parts, axis=0),
        y2_targets=np.concatenate(t2_parts),
        y3=y3,
    )
    sets.validate()
    return sets


def z_loss(kind, params_z: MlpParams, batch, system, trained_v):
    """Loss value and flat gradient for the prefactor network.

    L1 and L2 are the hinged target fit of ``fit_loss``; L3 is the squared
    transport residual (b . grad Z + c Z)^2 with coefficients frozen at
    the trained V.  Each gradient carries the weight penalty once.
    """
    if kind in ("L1", "L2"):
        value, grad = fit_loss(params_z, *batch)
    elif kind == "L3":
        x = np.asarray(batch)
        b, c = transport_coefficients(system, trained_v, x)
        z = net.forward(params_z, x)
        gz = net.grad_input(params_z, x)
        resid = np.einsum("bi,bi->b", b, gz) + c * z
        value = float(np.mean(resid**2))
        coeff = 2.0 * resid / x.shape[0]
        grad = net.grad_params_of_directional_input_grad(params_z, x, b, coeff)
        grad += net.grad_params(params_z, x, coeff * c)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    grad += params_z.l2_gradient()
    return value, grad


def train_z(sets: ZTrainingSets, cfg: QpTrainConfig, system, trained_v) -> TrainedZ:
    """Same alternating schedule as the quasi-potential; fine-tuning keeps
    the attractor targets and the transport residual."""
    cfg.validate()
    sets.validate()
    params = new_params(cfg, system)
    members = [
        ("L1z", sets.y1.shape[0], lambda idx: (sets.y1[idx], sets.y1_targets[idx]),
         lambda p, b: z_loss("L1", p, b, system, trained_v), cfg.lr1),
        ("L2z", sets.y2.shape[0], lambda idx: (sets.y2[idx], sets.y2_targets[idx]),
         lambda p, b: z_loss("L2", p, b, system, trained_v), cfg.lr2),
        ("L3z", sets.y3.shape[0], lambda idx: sets.y3[idx],
         lambda p, b: z_loss("L3", p, b, system, trained_v), cfg.lr3),
    ]
    log, _ = alternating_adam(params, members, cfg, cfg.seed)
    return TrainedZ(params=params, log=log)
