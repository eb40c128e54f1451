"""Scalar-output multilayer perceptron with exact derivatives, in numpy.

The architecture is the fixed ladder  n -> 32 -> 256 -> 256 -> 256 -> 64
-> 16 -> 1  with sigmoid hidden units and a linear output (the
quasi-potential is unbounded above, so the output stage cannot saturate).
Besides the forward pass the module provides four exact derivative
operations needed by the training losses:

* grad_params            -- reverse mode over the parameters,
* grad_input             -- reverse mode over the input point,
* hessian_input          -- forward-over-reverse input Hessian,
* grad_params_of_directional_input_grad
                         -- parameter gradient of w . grad_x NN(x),
                            i.e. reverse mode through the tangent pass,

plus a bias-corrected Adam step.  Every kernel takes a batch of input
points of shape (B, n), the only input shape accepted, and returns one
value, gradient or Hessian per row.  Everything runs in float64: the
second-order training signals are too fragile at single precision.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .models import _as_batch

__all__ = [
    "MlpSpec",
    "MlpParams",
    "AdamState",
    "default_widths",
    "init_params",
    "forward",
    "grad_params",
    "grad_input",
    "hessian_input",
    "grad_params_of_directional_input_grad",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

_NET_MAGIC = b"DWKBNET\x00"
_NET_VERSION = 1


def default_widths(dim_in):
    return (dim_in, 32, 256, 256, 256, 64, 16, 1)


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths plus the L2 penalty on weights (not biases)."""

    widths: tuple
    l2_lambda: float = 1e-3

    def __post_init__(self):
        if len(self.widths) < 2 or self.widths[-1] != 1:
            raise ValueError("need at least one layer and scalar output")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")

    @property
    def dim_in(self):
        return self.widths[0]

    @property
    def n_layers(self):
        return len(self.widths) - 1

    def layout(self):
        """(offset, shape) pairs for the flat view: per layer W then b."""
        out = []
        off = 0
        for l in range(self.n_layers):
            n_out, n_in = self.widths[l + 1], self.widths[l]
            out.append((off, (n_out, n_in)))
            off += n_out * n_in
            out.append((off, (n_out,)))
            off += n_out
        return out, off


class MlpParams:
    """Parameters stored as one flat float64 vector with per-layer views."""

    def __init__(self, spec: MlpSpec, flat=None):
        self.spec = spec
        layout, size = spec.layout()
        if flat is None:
            flat = np.zeros(size)
        flat = np.ascontiguousarray(flat, dtype=float)
        if flat.shape != (size,):
            raise ValueError(f"flat vector has length {flat.shape}, expected {size}")
        self.flat = flat
        self.layers = []
        for l in range(spec.n_layers):
            w_off, w_shape = layout[2 * l]
            b_off, b_shape = layout[2 * l + 1]
            w = self.flat[w_off:w_off + w_shape[0] * w_shape[1]].reshape(w_shape)
            b = self.flat[b_off:b_off + b_shape[0]]
            self.layers.append((w, b))

    @property
    def size(self):
        return self.flat.shape[0]

    def copy(self):
        return MlpParams(self.spec, self.flat.copy())

    def weight_mask(self):
        """Boolean flat mask selecting weight (non-bias) entries."""
        mask = np.zeros(self.size, dtype=bool)
        layout, _ = self.spec.layout()
        for l in range(self.spec.n_layers):
            off, shape = layout[2 * l]
            mask[off:off + shape[0] * shape[1]] = True
        return mask

    def l2_gradient(self):
        """lambda * weights, zero on biases, written layer by layer: masked
        gathers would allocate three parameter-sized temporaries per step."""
        g = MlpParams(self.spec)
        for (gw, _), (w, _) in zip(g.layers, self.layers):
            np.multiply(self.spec.l2_lambda, w, out=gw)
        return g.flat


SIGMOID_INIT_GAIN = 4.0


def init_params(spec: MlpSpec, seed) -> MlpParams:
    """Uniform(-b, b) weights with b = 4 sqrt(6/(fan_in+fan_out)) on hidden
    layers, zero biases; deterministic in the seed.

    The factor 4 is the standard sigmoid correction of the Glorot bound:
    the uncorrected bound targets unit-gain activations, while the
    logistic slope is at most 1/4, so at depth six the input signal dies
    by a factor ~4^-L and training collapses onto the constant (trivial)
    solution.  The linear output layer keeps the unit-gain bound.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    params = MlpParams(spec)
    last = spec.n_layers - 1
    for l, (w, b) in enumerate(params.layers):
        gain = 1.0 if l == last else SIGMOID_INIT_GAIN
        bound = gain * np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = 0.0
    return params


def _forward_trace(params, xb):
    """Activations of every layer: the input, the sigmoid outputs of the
    hidden layers, then the linear output."""
    n_layers = params.spec.n_layers
    acts = [xb]
    for l, (w, b) in enumerate(params.layers):
        z = acts[-1] @ w.T + b
        acts.append(z if l == n_layers - 1 else expit(z))
    return acts


def forward(params: MlpParams, x):
    """Network outputs (B,) for a (B, n) batch."""
    return _forward_trace(params, _as_batch(x, params.spec.dim_in))[-1][:, 0]


# The sigmoid derivatives, written in terms of the sigmoid value s = expit(z)
# that the forward trace already holds.

def _sigma_prime(s):
    return s * (1.0 - s)


def _sigma_prime2(s):
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def grad_params(params: MlpParams, x, upstream) -> np.ndarray:
    """Flat gradient of  sum_b upstream_b * NN(x_b)  over the parameters.

    ``upstream`` holds one coefficient per batch row.  No weight penalty
    is added here: the losses add ``params.l2_gradient()`` once.
    """
    xb = _as_batch(x, params.spec.dim_in)
    ups = np.asarray(upstream, dtype=float)
    if ups.shape != (xb.shape[0],):
        raise ValueError("upstream has wrong shape")

    acts = _forward_trace(params, xb)
    grad = MlpParams(params.spec)
    delta = ups[:, None]  # d(sum ups*y)/d z_L
    for l in range(params.spec.n_layers - 1, -1, -1):
        w, _ = params.layers[l]
        gw, gb = grad.layers[l]
        gw += delta.T @ acts[l]
        gb += delta.sum(axis=0)
        if l > 0:
            delta = (delta @ w) * _sigma_prime(acts[l])
    return grad.flat


def grad_input(params: MlpParams, x):
    """Input gradients grad_x NN(x_b), shape (B, n)."""
    xb = _as_batch(x, params.spec.dim_in)
    acts = _forward_trace(params, xb)
    delta = np.ones((xb.shape[0], 1))
    for l in range(params.spec.n_layers - 1, 0, -1):
        w, _ = params.layers[l]
        delta = (delta @ w) * _sigma_prime(acts[l])
    return delta @ params.layers[0][0]


def hessian_input(params: MlpParams, x):
    """Input Hessians, shape (B, n, n).

    Forward-over-reverse: the n input tangent directions ride through the
    forward pass, then through the adjoint recursion.  The result is
    symmetrized to strip last-bit asymmetry.
    """
    xb = _as_batch(x, params.spec.dim_in)
    n = params.spec.dim_in
    bsz = xb.shape[0]
    n_layers = params.spec.n_layers

    acts = _forward_trace(params, xb)
    # Forward tangents zdot[l][b, i, t] = d z_l,i / d x_t.
    zdots = []
    adot = np.broadcast_to(np.eye(n), (bsz, n, n))
    for l, (w, _) in enumerate(params.layers):
        zdot = np.einsum("oi,bit->bot", w, adot, optimize=True)
        zdots.append(zdot)
        if l < n_layers - 1:
            adot = _sigma_prime(acts[l + 1])[:, :, None] * zdot

    # Adjoint values and their tangents.
    delta = np.ones((bsz, 1))
    delta_dot = np.zeros((bsz, 1, n))
    for l in range(n_layers - 1, 0, -1):
        w, _ = params.layers[l]
        s = delta @ w
        s_dot = np.einsum("bot,oi->bit", delta_dot, w, optimize=True)
        sp = _sigma_prime(acts[l])
        spp = _sigma_prime2(acts[l])
        delta = s * sp
        delta_dot = s_dot * sp[:, :, None] + (s * spp)[:, :, None] * zdots[l - 1]
    w1 = params.layers[0][0]
    h = np.einsum("bit,ij->bjt", delta_dot, w1, optimize=True)
    return 0.5 * (h + np.swapaxes(h, 1, 2))


def grad_params_of_directional_input_grad(params: MlpParams, x, w_dir, coeff) -> np.ndarray:
    """Flat gradient w.r.t. parameters of  sum_b c_b * (w_b . grad_x NN(x_b)).

    ``w_dir`` holds one direction per batch row, (B, n), and ``coeff`` one
    coefficient per row, (B,).  No L2 term is added here (the loss
    assemblies own the regularizer).
    """
    xb = _as_batch(x, params.spec.dim_in)
    wb = np.asarray(w_dir, dtype=float)
    if wb.shape != xb.shape:
        raise ValueError("direction batch must match input batch")
    bsz = xb.shape[0]
    c = np.asarray(coeff, dtype=float)
    if c.shape != (bsz,):
        raise ValueError("coeff must hold one value per batch row")

    n_layers = params.spec.n_layers
    acts = _forward_trace(params, xb)
    # Forward tangent pass in direction w: zdot_l, adot_l.
    zdots, adots = [], [wb]
    adot = wb
    for l, (wmat, _) in enumerate(params.layers):
        zdot = adot @ wmat.T
        zdots.append(zdot)
        adot = zdot if l == n_layers - 1 else _sigma_prime(acts[l + 1]) * zdot
        adots.append(adot)

    grad = MlpParams(params.spec)
    # Adjoints of the augmented graph; objective is sum_b c_b * zdot_L.
    a_bar = np.zeros((bsz, 1))
    q = c[:, None]
    for l in range(n_layers - 1, -1, -1):
        wmat, _ = params.layers[l]
        if l == n_layers - 1:  # linear output: act' = 1, act'' = 0
            z_bar = a_bar
            r = q
        else:
            sp = _sigma_prime(acts[l + 1])
            spp = _sigma_prime2(acts[l + 1])
            z_bar = sp * a_bar + spp * zdots[l] * q
            r = sp * q
        gw, gb = grad.layers[l]
        gw += z_bar.T @ acts[l] + r.T @ adots[l]
        gb += z_bar.sum(axis=0)
        a_bar = z_bar @ wmat
        q = r @ wmat
    return grad.flat


@dataclass
class AdamState:
    """Moment accumulators for one optimizer instance."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    floor: float = 1e-8
    rejected: int = 0

    @classmethod
    def fresh(cls, params: MlpParams, lr):
        return cls(lr=lr, m=np.zeros(params.size), v=np.zeros(params.size))


def adam_step(state: AdamState, params: MlpParams, grads):
    """One bias-corrected Adam update, in place.

    Non-finite gradient entries reject the step: the counter is bumped and
    neither the moments nor the parameters move.
    """
    g = np.asarray(grads, dtype=float)
    if g.shape != (params.size,):
        raise ValueError("gradient length does not match parameters")
    if not np.all(np.isfinite(g)):
        state.rejected += 1
        return state, params
    # In place, through three temporaries, in the operation order of
    # lr * m_hat / (sqrt(v_hat) + floor): fresh parameter-sized arrays on
    # every step cost page faults whose price varies from run to run.
    state.t += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * g
    g2 = (1.0 - state.beta2) * g
    g2 *= g
    state.v *= state.beta2
    state.v += g2
    step = np.divide(state.m, 1.0 - state.beta1 ** state.t)
    denom = np.divide(state.v, 1.0 - state.beta2 ** state.t, out=g2)
    np.sqrt(denom, out=denom)
    denom += state.floor
    step *= state.lr
    step /= denom
    params.flat -= step
    return state, params


# ---------------------------------------------------------------------------
# Checkpoints: header (magic, version, layer count, widths), per-layer
# row-major f64 weights and biases, then any optimizer states.
# ---------------------------------------------------------------------------


@contextmanager
def write_atomically(path):
    """Binary handle on a sibling temporary file that replaces ``path`` when
    the block completes; on failure ``path`` keeps its previous content."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, params: MlpParams, adam_states=None, extra=None):
    states = list(adam_states or [])
    with write_atomically(path) as fh:
        fh.write(_NET_MAGIC)
        fh.write(struct.pack("<II", _NET_VERSION, params.spec.n_layers))
        fh.write(np.asarray(params.spec.widths, dtype="<u4").tobytes())
        fh.write(struct.pack("<d", params.spec.l2_lambda))
        for w, b in params.layers:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", len(states)))
        for s in states:
            fh.write(struct.pack("<Qdddd", s.t, s.lr, s.beta1, s.beta2, s.floor))
            fh.write(struct.pack("<Q", s.rejected))
            fh.write(s.m.astype("<f8").tobytes())
            fh.write(s.v.astype("<f8").tobytes())
        blob = b"" if extra is None else extra
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def load_checkpoint(path):
    """Returns (params, adam_states, extra_bytes)."""
    with open(path, "rb") as fh:
        if fh.read(8) != _NET_MAGIC:
            raise ValueError("bad checkpoint magic")
        version, n_layers = struct.unpack("<II", fh.read(8))
        if version != _NET_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        widths = tuple(np.frombuffer(fh.read(4 * (n_layers + 1)), dtype="<u4").astype(int))
        (lam,) = struct.unpack("<d", fh.read(8))
        spec = MlpSpec(widths=widths, l2_lambda=lam)
        params = MlpParams(spec)
        for w, b in params.layers:
            w[...] = np.frombuffer(fh.read(8 * w.size), dtype="<f8").reshape(w.shape)
            b[...] = np.frombuffer(fh.read(8 * b.size), dtype="<f8")
        (n_states,) = struct.unpack("<I", fh.read(4))
        states = []
        for _ in range(n_states):
            t, lr, b1, b2, floor = struct.unpack("<Qdddd", fh.read(40))
            (rej,) = struct.unpack("<Q", fh.read(8))
            m = np.frombuffer(fh.read(8 * params.size), dtype="<f8").copy()
            v = np.frombuffer(fh.read(8 * params.size), dtype="<f8").copy()
            states.append(AdamState(lr=lr, m=m, v=v, t=t, beta1=b1, beta2=b2,
                                    floor=floor, rejected=rej))
        (nblob,) = struct.unpack("<I", fh.read(4))
        extra = fh.read(nblob)
    return params, states, extra
