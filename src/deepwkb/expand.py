"""Training-set expansion along Hamilton-Jacobi characteristics.

The characteristic system of  f . grad V + 1/2 grad V^T A grad V = 0  is
the Hamiltonian flow of  H(x, p) = f(x)^T p + 1/2 p^T A p,

    dx/ds = f(x) + A p,      dp/ds = -(grad f(x))^T p,

along which  dV/ds = 1/2 p^T A p >= 0.  A first-order symplectic Euler
step (implicit in x, explicit in p) keeps the energy H bounded over long
arcs, which an explicit scheme would not.  The diffusion A is the
system's constant matrix (sigma is constant and required), so the force
term grad_x(1/2 p^T A(x) p) of a state-dependent A does not arise.  All
curves of a batch advance together through one batched step kernel.

A simplified fixed-horizon minimum-action search estimates V at a single
target point: starting from points on a level set {V = C}, the discrete
action of a path to the target is minimized by gradient descent over the
interior nodes.  No pipeline stage calls it yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import _as_batch

__all__ = [
    "CharState",
    "CharacteristicCurve",
    "ActionPath",
    "SolverFailure",
    "hamiltonian",
    "char_step",
    "seed_characteristics",
    "trace_curves",
    "min_action_estimate",
    "min_action_scan",
    "export_expanded_csv",
]

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 50
ENERGY_TOL = 0.05   # bound on |H| at a seed and on the energy drift along a curve
MAX_CURVE_STEPS = 2_000_000
STALL_RATE_FRACTION = 1e-4   # terminate when p^T A p falls this far below its seed value
_DIVERGENCE_PATIENCE = 50


class SolverFailure(RuntimeError):
    pass


@dataclass
class CharState:
    """Point on a characteristic: position, costate, accumulated V and
    log-transport integral, curve parameter."""

    x: np.ndarray
    p: np.ndarray
    v: float
    log_z: float = 0.0
    s: float = 0.0


@dataclass
class CharacteristicCurve:
    states: list            # sampled CharStates, ordered by s
    # reached_v_max | left_domain | step_limit | solver_failure | stalled
    reason: str
    h0: float               # energy at the seed
    max_energy_drift: float


@dataclass
class ActionPath:
    nodes: np.ndarray   # (N+1, n), endpoints fixed
    dt: float
    action: float


def _quad(p, a):
    """p_b^T A p_b for each row of p."""
    return np.einsum("bi,ij,bj->b", p, a, p)


def hamiltonian(system, x, p):
    """H(x, p) = f^T p + 1/2 p^T A p for batches (B, n), (B, n) -> (B,)."""
    return np.einsum("bi,bi->b", system.drift(x), p) + 0.5 * _quad(p, system.a)


def char_step(system, x, p, h):
    """One implicit-in-x symplectic Euler step for a batch of curves.

    x_{k+1} solves  x = x_k + h (f(x) + A p_k)  by fixed-point iteration,
    then  p_{k+1} = p_k - h (grad f(x_{k+1}))^T p_k.  Returns
    (x_{k+1}, p_{k+1}, dv, converged): dv = h/2 p_k^T A p_k is the
    quasi-potential increment, and ``converged`` flags the rows whose
    iteration settled within FIXED_POINT_MAX_ITER sweeps.
    """
    drive = p @ system.a.T
    xi = x + h * (system.drift(x) + drive)  # explicit predictor
    for _ in range(FIXED_POINT_MAX_ITER):
        x_next = x + h * (system.drift(xi) + drive)
        converged = np.max(np.abs(x_next - xi), axis=1) < FIXED_POINT_TOL
        xi = x_next
        if converged.all():
            break
    p_next = p - h * np.einsum("bji,bj->bi", system.drift_jacobian(xi), p)
    return xi, p_next, 0.5 * h * _quad(p, system.a), converged


def seed_characteristics(system, trained, level, count, seed, domain,
                         rel_band=0.1, max_tries=200000):
    """Rejection-sample seed states near the level set {V = level}.

    Candidates are uniform in the domain box, kept when
    |V(x) - level| < rel_band * level, and given the costate
    p = grad V(x).  Seeds whose Hamiltonian exceeds ENERGY_TOL in
    magnitude indicate a badly trained gradient and are rejected.
    """
    if count == 0:
        return []
    lo, hi = (np.asarray(v, dtype=float) for v in domain)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out = []
    tries = 0
    while len(out) < count and tries < max_tries:
        batch = rng.uniform(lo, hi, size=(256, lo.shape[0]))
        tries += 256
        vals = np.asarray(trained.v(batch))
        hit = np.abs(vals - level) < rel_band * level
        if not hit.any():
            continue
        xs, vs = batch[hit], vals[hit]
        grads = np.asarray(trained.grad_v(xs), dtype=float)
        good = np.nonzero(np.abs(hamiltonian(system, xs, grads)) < ENERGY_TOL)[0]
        out += [CharState(x=xs[i].copy(), p=grads[i].copy(), v=float(vs[i]))
                for i in good[:count - len(out)]]
    if len(out) < count:
        raise SolverFailure(
            f"found only {len(out)} of {count} seeds near level {level:g} "
            f"after {tries} draws (empty level set or noisy gradients?)")
    return out


def trace_curves(system, seeds, h, v_max, domain, samples_per_curve,
                 transport=None, transport_every=1):
    """Integrate a batch of characteristics, each until its v reaches
    v_max, it leaves the domain box, or MAX_CURVE_STEPS steps pass.

    All live curves advance together through ``char_step``, which is what
    makes hundreds of 10^4-step curves cheap.  Samples are recorded
    uniformly in v (not in s) so level bands are covered evenly; short
    curves simply return fewer samples.  Two guards cut a curve whose
    discrete state stops being a trustworthy characteristic: an energy
    drift beyond ENERGY_TOL (the costate growth outran the step size),
    and a costate collapse (p^T A p falling to a tiny fraction of its seed
    value, which happens when the curve runs into a critical point of the
    flow and would afterwards coast along plain trajectories while its
    accumulated v is stale).

    When a transport coefficient callable is supplied, log_z accumulates
    -h c(x_k); it receives an (alive, n) block.  With transport_every = k
    the coefficient is refreshed every k steps and held over the
    subinterval; c varies on the curve scale, not the step scale, so k
    steps spanning a small fraction of unit s-length leave the accumulated
    integral essentially unchanged while removing the dominant cost (the
    network Hessian inside c).
    """
    if not seeds:
        return []
    lo, hi = (np.asarray(v, dtype=float) for v in domain)
    c = len(seeds)
    x = np.stack([s.x for s in seeds]).astype(float)
    p = np.stack([s.p for s in seeds]).astype(float)
    v = np.array([s.v for s in seeds], dtype=float)
    logz = np.array([s.log_z for s in seeds], dtype=float)
    s_par = np.array([s.s for s in seeds], dtype=float)

    h0 = hamiltonian(system, x, p)
    levels = v[:, None] + (v_max - v)[:, None] * (np.arange(samples_per_curve) + 1) / samples_per_curve
    rate_floor = STALL_RATE_FRACTION * _quad(p, system.a)
    next_level = np.zeros(c, dtype=int)
    drift_max = np.zeros(c)
    reasons = np.array(["step_limit"] * c, dtype=object)
    alive = v < v_max
    reasons[~alive] = "reached_v_max"
    samples = [[] for _ in range(c)]

    c_cache = np.zeros(c)
    for step_no in range(MAX_CURVE_STEPS):
        if not alive.any():
            break
        idx = np.nonzero(alive)[0]
        xk = x[idx]
        xi, p_next, dv, converged = char_step(system, xk, p[idx], h)
        if transport is not None:
            if step_no % transport_every == 0:
                c_cache[idx] = np.asarray(transport(xk), dtype=float)
            logz[idx] -= h * c_cache[idx]
        x[idx], p[idx] = xi, p_next
        v[idx] += dv
        s_par[idx] += h

        energy_drift = np.abs(hamiltonian(system, xi, p_next) - h0[idx])
        stalled = _quad(p_next, system.a) < rate_floor[idx]
        bad = ~converged | (energy_drift > ENERGY_TOL) | stalled
        drift_max[idx[~bad]] = np.maximum(drift_max[idx[~bad]], energy_drift[~bad])
        for pos, j in enumerate(idx[bad]):
            reasons[j] = "stalled" if stalled[bad][pos] else "solver_failure"
            alive[j] = False

        for pos, j in enumerate(idx):
            if bad[pos]:
                continue
            crossed = False
            while next_level[j] < samples_per_curve and v[j] >= levels[j, next_level[j]] - 1e-15:
                next_level[j] += 1
                crossed = True
            if crossed:
                samples[j].append(CharState(x=x[j].copy(), p=p[j].copy(), v=float(v[j]),
                                            log_z=float(logz[j]), s=float(s_par[j])))
            if next_level[j] >= samples_per_curve or v[j] >= v_max:
                reasons[j] = "reached_v_max"
                alive[j] = False
            elif np.any(x[j] < lo) or np.any(x[j] > hi):
                reasons[j] = "left_domain"
                alive[j] = False

    return [CharacteristicCurve(states=samples[j], reason=str(reasons[j]),
                                h0=float(h0[j]), max_energy_drift=float(drift_max[j]))
            for j in range(c)]


# ---------------------------------------------------------------------------
# Simplified minimum action method (fixed horizon, fixed endpoints).
# ---------------------------------------------------------------------------


def discrete_action(system, nodes, dt, a_inv):
    """Trapezoid discretization of  int 1/2 (phi' - f)^T A^-1 (phi' - f) ds.

    A diverging path overflows to an infinite action, which
    min_action_estimate reports as a SolverFailure.
    """
    with np.errstate(over="ignore"):
        vel = np.diff(nodes, axis=0) / dt
        fa = system.drift(nodes[:-1])
        fb = system.drift(nodes[1:])
        ra = (vel - fa) @ a_inv
        rb = (vel - fb) @ a_inv
        return 0.25 * dt * float(np.einsum("bi,bi->", vel - fa, ra) +
                                 np.einsum("bi,bi->", vel - fb, rb))


def _action_gradient(system, nodes, dt, a_inv):
    vel = np.diff(nodes, axis=0) / dt
    ra = (vel - system.drift(nodes[:-1])) @ a_inv
    rb = (vel - system.drift(nodes[1:])) @ a_inv
    grad = np.zeros_like(nodes)
    # d/d phi_k of the velocity terms of segments k-1 and k.
    grad[1:-1] += 0.5 * (ra[:-1] + rb[:-1] - ra[1:] - rb[1:])
    # d/d phi_k of f(phi_k) inside segments k-1 (right end) and k (left end).
    jac = system.drift_jacobian(nodes[1:-1])
    grad[1:-1] -= 0.5 * dt * np.einsum("bij,bi->bj", jac, rb[:-1] + ra[1:])
    return grad


def min_action_estimate(system, x_target, surface_points, horizon, n_nodes,
                        iters, lr, level_value=0.0):
    """Quasi-potential upper bound  C + min over surface starts of the
    minimized discrete action from the level set {V = C} to the target.

    Fixed horizon and time grid (no geometric reparametrization); each
    start initializes a straight-line path whose interior nodes descend
    the analytic action gradient.  Raises when A is not positive definite
    or when the action increases for 50 consecutive iterations.
    """
    a = system.a
    eigs = np.linalg.eigvalsh(a)
    if eigs.min() <= 0:
        raise ValueError("diffusion matrix must be positive definite for the action")
    a_inv = np.linalg.inv(a)
    x_target = np.asarray(x_target, dtype=float)
    dt = horizon / n_nodes

    best = None
    for y in _as_batch(surface_points, system.dim_state):
        nodes = np.linspace(y, x_target, n_nodes + 1)
        action = discrete_action(system, nodes, dt, a_inv)
        rising = 0
        for _ in range(iters):
            nodes[1:-1] -= lr * _action_gradient(system, nodes, dt, a_inv)[1:-1]
            new_action = discrete_action(system, nodes, dt, a_inv)
            if not np.isfinite(new_action):
                raise SolverFailure("action diverged to a non-finite value")
            rising = rising + 1 if new_action > action else 0
            if rising >= _DIVERGENCE_PATIENCE:
                raise SolverFailure("action increased for 50 consecutive iterations")
            action = new_action
        if best is None or action < best.action:
            best = ActionPath(nodes=nodes.copy(), dt=dt, action=action)
    if best is None:
        raise ValueError("surface_points must be nonempty")
    return level_value + best.action, best


DEFAULT_ACTION_HORIZONS = (0.5, 1.0, 2.0, 5.0)


def min_action_scan(system, x_target, surface_points, n_nodes, iters, lr_per_dt,
                    level_value=0.0, horizons=DEFAULT_ACTION_HORIZONS):
    """Scan fixed horizons and keep the smallest estimate.

    The fixed-horizon action is minimized over T in a short list because
    the unconstrained infimum sits at a finite horizon that depends on
    the start and target; the spread of the default grid brackets it for
    targets a moderate climb above the surface.  ``lr_per_dt`` scales the
    descent step with the node spacing (the velocity term's curvature
    grows like 1/dt).
    """
    best = None
    best_path = None
    for horizon in horizons:
        lr = lr_per_dt * horizon / n_nodes
        est, path = min_action_estimate(system, x_target, surface_points, horizon,
                                        n_nodes, iters, lr, level_value=level_value)
        if best is None or est < best:
            best, best_path = est, path
    return best, best_path


def export_expanded_csv(curves, path):
    """(coords..., v, origin=characteristic) rows."""
    rows = [(st.x, st.v) for curve in curves for st in curve.states]
    if not rows:
        raise ValueError("no curve samples to export")
    dim = rows[0][0].shape[0]
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i}" for i in range(dim)] + ["v", "origin"]) + "\n")
        for x, v in rows:
            coords = ",".join(f"{c:.17g}" for c in x)
            fh.write(f"{coords},{v:.17g},characteristic\n")
