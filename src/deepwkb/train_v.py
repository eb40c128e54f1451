"""Training of the quasi-potential network.

Training is a list of terms, a loss kind on a point set each, run by one
alternating schedule with an Adam instance per term (the terms differ in
scale, and Adam's near scale-invariance makes per-term optimizers the
cheap fix):

* L1 on X1, attractor points:   mean[ V^2 + max(0, -V) ]
* L2 on X2, regression targets: mean[ (V - V_hat)^2 + max(0, -V) ]
* L3 on X3, residual points:    mean[ (f . grad V + 1/2 grad V^T A grad V)^2 ]

L1 and L2 are one hinged target fit (``fit_loss``, target 0 on X1) and L3
is the squared ``hj_residual`` through ``residual_loss``, which serves
train_z's transport residual too.  The hinges keep V nonnegative, X1 pins
the zero level set and L3 keeps the fit a Hamilton-Jacobi solution.

The output is divided by alpha (``estimate_alpha``), which is no symmetry
of the equation: if V solves it, alpha * V leaves the residual
alpha (1 - alpha) f . grad V.  So alpha -> 0 trivially solves L1 + L3,
and V / alpha with alpha != 1 solves no Hamilton-Jacobi equation.

Every point set is a (B, n) batch, and the accessors of TrainedQp take
and return batches: V as (B,), grad V as (B, n), its Hessian as
(B, n, n).

A network of at least 2^14 parameters (the paper width has 157,633, the
1-d OU net 1,153) evaluates every batch as two fixed blocks of 64 rows,
and a step's loss and gradient are the blocks', weighted by their row
share and added block 0 first.  Given a second usable core and
one-threaded BLAS, the schedule then runs as two ranks (Goyal et al.,
2017, synchronous data parallelism): rank 1 is a forked child (fork,
because the loss callables cannot be pickled) that replays the same
seeded schedule, and the parameters and one gradient row per block live
in one anonymous shared mapping.  Each rank owns its half of the
elements and the Adam moments of that half (ZeRO stage 1, Rajbhandari
et al., 2020).  In each step each rank evaluates its block; after a
barrier, each adds the two block gradients over its half and applies
``net.adam_step`` to it, and a second barrier ends the step.  The
barriers poll with ``time.sleep(0)``: a waiter that blocks wakes 0.14 ms
late in the median on a virtual machine.
Otherwise this process evaluates both blocks in turn, with the same
bits, so the outputs depend neither on the core count nor on timing.
An exception in rank 1 is re-raised on rank 0 with its type and the
child's traceback as its cause, a dead rank 1 is reported by its exit
code, and rank 1 exits by itself once its parent is gone.  A wrapper
installed around the loss or the network kernels sees rank 0's calls
only.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import net, simulate
from .models import _philox
from .net import AdamState, MlpParams, MlpSpec

__all__ = [
    "QpTrainingSets",
    "QpTrainConfig",
    "TrainedQp",
    "TrainingDiverged",
    "hj_residual",
    "fit_loss",
    "residual_loss",
    "assemble_qp_sets",
    "qp_loss",
    "train_qp",
    "estimate_alpha",
    "alternating_adam",
]

ALPHA_TARGET_FLOOR = 0.05
ALPHA_MIN_POINTS = 10
BATCH_SIZE = 128          # rows per training batch, for V and Z alike
L2_LAMBDA = 1e-3          # weight penalty of every network trained here
FAR_FIELD_DENSITY = 1e-6  # top-level density below which an unfit point is far field
FINE_TUNE_TERMS = (0, 2)  # attractor fit and residual train on after the main epochs,
FINE_TUNE_FACTOR = 0.1    # at this fraction of their learning rates
_BLOCKS = 2               # row blocks of a batch at paper width, one per rank
_BLOCK_MIN_PARAMS = 1 << 14  # smaller networks train on whole batches


class TrainingDiverged(RuntimeError):
    """A loss became non-finite during training."""


@dataclass
class QpTrainingSets:
    x1: np.ndarray                 # (M1, n) attractor points, target 0
    x2: np.ndarray                 # (M2, n)
    x2_targets: np.ndarray         # (M2,)
    x2_artificial: np.ndarray      # (M2,) bool
    x3: np.ndarray                 # (M3, n) residual points
    x2_is_reference: np.ndarray | None = None  # regression-backed, never artificial

    def __post_init__(self):
        if self.x2_is_reference is None:
            self.x2_is_reference = ~np.asarray(self.x2_artificial, dtype=bool)

    def validate(self):
        if self.x1.shape[0] == 0:
            raise ValueError("attractor set X1 is empty")
        if self.x2.shape[0] == 0:
            raise ValueError("target set X2 is empty")
        if not np.all(np.isfinite(self.x2_targets)):
            raise ValueError("X2 targets must be finite")


@dataclass
class QpTrainConfig:
    epochs: int = 200
    lr1: float = 2e-4
    lr2: float = 5e-4
    lr3: float = 1e-4
    fine_tune_epochs: int = 20
    residual_count: int | None = None       # cap on |X3|; None keeps all
    widths: tuple | None = None             # None: the standard ladder
    seed: int = 0

    def validate(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if min(self.lr1, self.lr2, self.lr3) <= 0:
            raise ValueError("learning rates must be positive")
        if self.fine_tune_epochs < 0:
            raise ValueError("fine_tune_epochs must be at least 0")
        if not (self.residual_count is None or self.residual_count >= 1):
            raise ValueError("residual_count must be None or at least 1")


def new_params(cfg: QpTrainConfig, system) -> MlpParams:
    """A freshly initialized network for ``cfg`` on ``system``'s state space."""
    widths = cfg.widths or net.default_widths(system.dim_state)
    return net.init_params(MlpSpec(widths=widths, l2_lambda=L2_LAMBDA), seed=cfg.seed)


@dataclass
class TrainedQp:
    """Quasi-potential network plus the output scale alpha it is divided by."""

    params: MlpParams
    alpha: float
    log: list = field(default_factory=list)  # (epoch, L1, L2, L3) rows
    rejected: dict = field(default_factory=dict)  # rejected Adam steps per loss kind

    def v(self, x):
        return net.forward(self.params, x) / self.alpha

    def grad_v(self, x):
        return net.grad_input(self.params, net.trace(self.params, x)) / self.alpha

    def hess_v(self, x):
        return net.hessian_input(self.params, x) / self.alpha


def hj_residual(system, grad_v, x):
    """Hamilton-Jacobi residual  f . g + 1/2 g^T A g  for g = grad V, and
    the characteristic direction  f + A g  that its parameter gradient
    runs along.

    ``grad_v`` and ``x`` are (B, n) batches; returns ((B,), (B, n)).
    """
    g = np.asarray(grad_v, dtype=float)
    f = system.drift(x)
    ag = np.dot(g, system.a.T)
    return np.einsum("bi,bi->b", f, g) + 0.5 * np.einsum("bi,bi->b", g, ag), f + ag


def fit_loss(params: MlpParams, x, targets):
    """Hinged target fit  mean[ (NN - y)^2 + max(0, -NN) ]  on a (B, n)
    batch and its flat parameter gradient, without the weight penalty.

    ``targets`` is (B,) or a scalar.  The hinge subgradient at exactly
    zero is taken as zero.  The value and the gradient share one trace.
    """
    acts = net.trace(params, x)
    v = acts[-1][:, 0]
    diff = v - np.asarray(targets)
    value = float(np.mean(diff**2 + np.maximum(0.0, -v)))
    upstream = (2.0 * diff - (v < 0.0)) / v.shape[0]
    return value, net.grad_params(params, acts, upstream)


def residual_loss(params: MlpParams, x, residual):
    """mean[ r^2 ] on a (B, n) batch and its flat parameter gradient, without
    the weight penalty, for a residual r first order in the network.

    ``residual(x, out, grad)`` maps the batch, outputs (B,) and input
    gradients (B, n) to r (B,), w = dr/d grad (B, n) and e = dr/d out (B,)
    or None.  One trace, then one sweep of the directional kernel along w
    with coefficient 2r/B and output seed 2r e/B.
    """
    acts = net.trace(params, x)
    resid, direction, out_coeff = residual(acts[0], acts[-1][:, 0], net.grad_input(params, acts))
    coeff = 2.0 * resid / resid.shape[0]
    grad = net.grad_params_of_directional_input_grad(
        params, acts, direction, coeff, upstream=None if out_coeff is None else coeff * out_coeff)
    return float(np.mean(resid**2)), grad


def _subsample(rng, count, *arrays):
    """The same ``count`` rows of each array, drawn without replacement
    and kept in their order; a ``count`` of None, or not below the row
    count, keeps every row."""
    rows = len(arrays[0])
    if count is None or count >= rows:
        return arrays
    keep = np.sort(rng.choice(rows, size=count, replace=False))
    return tuple(a[keep] for a in arrays)


def assemble_qp_sets(attractor_points, table, cfg: QpTrainConfig,
                     expanded=None) -> QpTrainingSets:
    """Build (X1, X2, X3) from the attractor points and the regression
    table (see ``regression``), whose points are the collocation points.

    Reliable points enter X2 with their fitted value.  The other
    collocation points whose empirical density at the largest noise
    level (u_top) is below FAR_FIELD_DENSITY receive the artificial value
    C = 1.5 x the 95th percentile of the reliable targets, so the far field
    is not left unconstrained.  Curve data supplied through ``expanded``
    as a (points, values) pair joins X2 in place of the artificial points.
    """
    points = table["point"]
    reliable = table["reliable"] == 1
    if not reliable.any():
        raise ValueError("no reliable regression targets for X2")
    reliable_pts = points[reliable]
    reliable_targets = table["v_hat"][reliable]
    far = ~reliable & (table["u_top"] < FAR_FIELD_DENSITY)

    c_value = 1.5 * float(np.percentile(reliable_targets, 95.0))
    if expanded is None:
        extra_pts, extra_v = points[far], np.full(int(far.sum()), c_value)
    else:
        extra_pts, extra_v = (np.asarray(a) for a in expanded)
    is_extra = np.arange(len(reliable_pts) + len(extra_pts)) >= len(reliable_pts)

    rng = _philox(cfg.seed)
    (x3,) = _subsample(rng, cfg.residual_count, points)

    sets = QpTrainingSets(
        x1=np.asarray(attractor_points),
        x2=np.concatenate([reliable_pts, extra_pts]),
        x2_targets=np.concatenate([reliable_targets, extra_v]),
        x2_artificial=is_extra & (expanded is None),
        x3=np.asarray(x3),
        x2_is_reference=~is_extra,
    )
    sets.validate()
    return sets


def qp_loss(kind, params: MlpParams, batch, system):
    """Loss value and flat parameter gradient for one batch.

    ``batch`` is a point array for L1/L3 and a (points, targets) pair for
    L2.  Each kind traces the network once.  Every gradient carries the L2
    weight penalty once.
    """
    if kind == "L1":
        value, grad = fit_loss(params, batch, 0.0)
    elif kind == "L2":
        value, grad = fit_loss(params, *batch)
    elif kind == "L3":
        value, grad = residual_loss(params, batch,
                                    lambda x, _, g: (*hj_residual(system, g, x), None))
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return value, net._add_weight_penalty(params, grad)


def _epoch_indices(rng, size, n_batches):
    # One shuffle per epoch; shorter sets recycle by wrapping the permutation.
    return np.resize(rng.permutation(size), (n_batches, BATCH_SIZE))


# glibc's mallopt parameter numbers, from malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory():
    """Let the C allocator keep what a training step frees, for the next step.

    glibc serves a block above its mmap threshold (128 KB at start) by mmap,
    and hands a free heap top above its trim threshold back to the kernel,
    so by default each paper-width step faults the 128 KB activations of
    its 64-row blocks in anew: ``paper-train``'s train_qp took 137 K minor
    faults and 1.64 s without this, against 6.2 K and 1.20 s with it (rank
    0, medians of 8 alternated runs, 2-core x86-64); the 1-d OU net's
    small arrays fault alike either way.  Fixed thresholds of 4 MB and
    64 MB keep the memory in the heap; they move no bit of any output.
    This sets process-wide allocator state, and does nothing where the C
    library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 4 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads():
    """BLAS's thread count as OpenBLAS reads it at load: the first positive
    value of its three variables, or 0 (every core) when none is set."""
    for name in _BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if n > 0:
            return n
    return 0


def _spare_core():
    """Whether a second rank gets a core of its own: a second usable core
    beside one-threaded BLAS (a multi-threaded BLAS already spreads the
    products over the cores), on x86-64, whose stores reach the other core
    in program order, as the ranks' barriers need."""
    return (os.uname().machine == "x86_64" and simulate._usable_cores() >= 2
            and _blas_threads() == 1)


def _shared_state(params, blocks):
    """The parameters and one gradient per block, as rows of one anonymous
    shared mapping, which a forked child shares; then per block its loss
    value and finiteness, and per rank its barrier count.  Rows start on
    64-byte lines."""
    size = params.size
    stride = -(-size // 8) * 8
    n_rows = 1 + blocks
    buf = np.frombuffer(mmap.mmap(-1, 8 * (n_rows * stride + 3 * blocks)))
    rows = buf[:n_rows * stride].reshape(n_rows, stride)[:, :size]
    shared = MlpParams(params.spec, rows[0])
    shared.flat[...] = params.flat
    return shared, rows[1:], buf[n_rows * stride:].reshape(3, blocks)


def alternating_adam(params, terms, loss, cfg, seed):
    """Run the alternating-Adam schedule over loss terms (kind, arrays, lr).

    A term's batch is BATCH_SIZE rows of its one array, or the tuple of the
    same rows of each of its arrays, and ``loss(kind, params, batch)``
    returns its value and flat gradient.  Per epoch the largest term sets
    the number of batches; smaller terms recycle their shuffled stream.
    The FINE_TUNE_TERMS then go on alone at FINE_TUNE_FACTOR times their
    rate.  Returns the per-epoch mean-loss log and the rejected Adam steps
    per loss kind.  Raises TrainingDiverged, naming the kind, on a
    non-finite loss.

    A network of at least _BLOCK_MIN_PARAMS parameters evaluates each batch
    as _BLOCKS row blocks, and a step's value and gradient are the blocks',
    weighted by their row share and added block 0 first.  Where
    ``_spare_core`` allows, the blocks run on two ranks (see the module
    docstring); otherwise this process evaluates them in turn, with the
    same bits.
    """
    _keep_freed_memory()
    blocks = _BLOCKS if params.size >= _BLOCK_MIN_PARAMS else 1
    ranks = blocks if blocks > 1 and _spare_core() else 1
    shared = _shared_state(params, blocks)
    if ranks == 1:
        log, rejected = _schedule(0, 1, shared, terms, loss, cfg, seed, None)
    else:
        parent = os.getpid()

        def orphaned():  # rank 1 ends with its parent
            if os.getppid() != parent:
                os._exit(1)

        with simulate.call_in_child(_schedule, 1, ranks, shared, terms, loss, cfg, seed,
                                    orphaned) as child:
            def child_failed():
                try:
                    child(0)
                except TimeoutError:
                    return
                raise RuntimeError("training rank 1 ended before rank 0 did")

            log, rejected = _schedule(0, ranks, shared, terms, loss, cfg, seed, child_failed)
            child()
    params.flat[...] = shared[0].flat
    return log, rejected


def _schedule(rank, ranks, shared, terms, loss, cfg, seed, poll):
    """The schedule as rank ``rank`` of ``ranks`` runs it, returning the log
    and the rejected steps per loss kind.

    Every rank draws the same batches from the seed, and holds one Adam
    state per term over its own part of the elements.  Per step a rank
    evaluates its blocks, and copies each block's gradient into the shared
    row as far as the other ranks update it; after a barrier it adds the
    blocks' weighted gradients over its part and takes the Adam step on
    it; a second barrier ends the step.  A non-finite block gradient,
    flagged beside it, makes every rank reject the step.  A waiting rank
    calls ``poll``.
    """
    params, grads, (values, finite, arrived) = shared
    blocks = len(grads)
    rows = BATCH_SIZE // blocks
    share = rows / BATCH_SIZE
    size = params.size
    parts = [slice(r * size // ranks, (r + 1) * size // ranks) for r in range(ranks)]
    part = parts[rank]
    mine = params.flat[part]
    states = [AdamState.fresh(mine.size, lr) for _, _, lr in terms]
    rng = _philox(seed)
    sizes = [len(arrays[0]) for _, arrays, _ in terms]
    log = []
    barriers = 0

    def sync():
        nonlocal barriers
        barriers += 1
        arrived[rank] = barriers
        for r in range(ranks):
            while arrived[r] < barriers:
                poll()
                time.sleep(0)  # yields the core between polls

    def step(epoch, i, idx):
        kind, arrays, _ = terms[i]
        local = {}
        for b in range(rank, blocks, ranks):
            batch = tuple(a[idx[b * rows:(b + 1) * rows]] for a in arrays)
            values[b], local[b] = loss(kind, params, batch if len(batch) > 1 else batch[0])
            if ranks > 1:
                finite[b] = np.all(np.isfinite(local[b]))
                for r in range(ranks):
                    if r != rank:
                        grads[b, parts[r]] = local[b][parts[r]]
        if ranks > 1:
            sync()
        value = sum(share * v for v in values.tolist())
        if not np.isfinite(value):
            raise TrainingDiverged(f"{kind} became non-finite at epoch {epoch}")
        g = share * local.get(0, grads[0])[part]
        for b in range(1, blocks):
            g += share * local.get(b, grads[b])[part]
        if ranks > 1 and not finite.all():  # a non-finite block rejects the step on every rank
            g[...] = np.nan
        net.adam_step(states[i], mine, g)
        if ranks > 1:
            sync()
        return value

    def sweep(epoch, active):
        n_batches = max(int(np.ceil(sizes[i] / BATCH_SIZE)) for i in active)
        idx_streams = {i: _epoch_indices(rng, sizes[i], n_batches) for i in active}
        sums = [0.0] * len(terms)
        for k in range(n_batches):
            for i in active:
                sums[i] += step(epoch, i, idx_streams[i][k])
        log.append((epoch,) + tuple(sums[i] / n_batches if i in active else np.nan
                                    for i in range(len(terms))))

    for epoch in range(cfg.epochs):
        sweep(epoch, tuple(range(len(terms))))
    for i in FINE_TUNE_TERMS:
        states[i].lr *= FINE_TUNE_FACTOR
    for epoch in range(cfg.epochs, cfg.epochs + cfg.fine_tune_epochs):
        sweep(epoch, FINE_TUNE_TERMS)
    return log, {kind: state.rejected for (kind, _, _), state in zip(terms, states)}


def train_qp(sets: QpTrainingSets, cfg: QpTrainConfig, system,
             initial: MlpParams | None = None) -> TrainedQp:
    """Alternating Adam over (L1, L2, L3), then fine-tuning on L1 and L3.

    Passing ``initial`` continues from previously learned parameters
    (fresh optimizer state), which is how retraining after a training-set
    expansion proceeds: restarting from scratch would throw away the
    curriculum already learned near the attractor.
    """
    cfg.validate()
    sets.validate()
    params = new_params(cfg, system) if initial is None else initial.copy()

    def loss(kind, p, batch):  # looks qp_loss up at each call, so a wrapper sees every batch
        return qp_loss(kind, p, batch, system)

    terms = [("L1", (sets.x1,), cfg.lr1), ("L2", (sets.x2, sets.x2_targets), cfg.lr2),
             ("L3", (sets.x3,), cfg.lr3)]
    log, rejected = alternating_adam(params, terms, loss, cfg, cfg.seed)

    # Scale against the regression references only: curve-derived targets
    # inherit the previous network's scale and would bias the ratio.
    ref = sets.x2_is_reference
    alpha = estimate_alpha(params, sets.x2[ref], sets.x2_targets[ref])
    return TrainedQp(params=params, alpha=alpha, log=log, rejected=rejected)


def estimate_alpha(params: MlpParams, points, targets) -> float:
    """Scale factor between the trained network and the regression targets:
    a fit diagnostic, since the Hamilton-Jacobi equation is not scale
    invariant (see the module docstring).  The median of the pointwise
    ratios over the targets above ALPHA_TARGET_FLOOR (at least
    ALPHA_MIN_POINTS of them) is robust to stray outliers.
    """
    targets = np.asarray(targets, dtype=float)
    mask = targets > ALPHA_TARGET_FLOOR
    if mask.sum() < ALPHA_MIN_POINTS:
        raise ValueError(f"only {int(mask.sum())} targets above {ALPHA_TARGET_FLOOR}; "
                         "cannot estimate alpha")
    ratios = net.forward(params, np.asarray(points)[mask]) / targets[mask]
    alpha = float(np.median(ratios))
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"estimated alpha {alpha} is not a positive scale")
    return alpha
