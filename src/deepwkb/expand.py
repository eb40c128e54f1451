"""Training-set expansion along Hamilton-Jacobi characteristics.

The characteristic system of  f . grad V + 1/2 grad V^T A grad V = 0  is
the Hamiltonian flow of  H(x, p) = f(x)^T p + 1/2 p^T A p,

    dx/ds = f(x) + A p,      dp/ds = -(grad f(x))^T p,

along which  dV/ds = 1/2 p^T A p >= 0.  H is ``train_v.hj_residual``
with p in place of grad V, so one kernel defines it for training and
for the characteristics.  A first-order symplectic Euler step (implicit
in x, explicit in p) keeps the energy H bounded over long arcs, which an
explicit scheme would not.  The diffusion A is the system's constant
matrix (sigma is constant and required), so the force term
grad_x(1/2 p^T A(x) p) of a state-dependent A does not arise.  All
curves of a batch advance together through one batched step kernel, and
their bookkeeping (termination, level crossings, samples) is done with
masks over the live rows.

A simplified minimum-action search estimates V at a single target point:
starting from points on a level set {V = C}, the discrete action of a
path to the target over each of a few fixed horizons is minimized over
the interior nodes by L-BFGS.  No pipeline stage calls it yet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .models import _as_batch, _philox
from .train_v import hj_residual

__all__ = [
    "CharState",
    "CharacteristicCurve",
    "ActionPath",
    "SolverFailure",
    "char_step",
    "seed_characteristics",
    "trace_curves",
    "min_action_estimate",
]

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 50
ENERGY_TOL = 0.05   # bound on |H| at a seed and on the energy drift along a curve
MAX_CURVE_STEPS = 2_000_000
STALL_RATE_FRACTION = 1e-4   # terminate when p^T A p falls this far below its seed value
SEED_MAX_DRAWS = 200_000   # candidates seed_characteristics draws before it gives up


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


def seed_characteristics(system, trained, level, count, seed, domain, rel_band=0.1):
    """Rejection-sample seed states near the level set {V = level}.

    Candidates are uniform in the domain box, kept when
    |V(x) - level| < rel_band * level, and given the costate
    p = grad V(x).  Seeds whose Hamiltonian exceeds ENERGY_TOL in
    magnitude indicate a badly trained gradient and are rejected.  After
    SEED_MAX_DRAWS candidates with fewer seeds, SolverFailure is raised.
    """
    if count == 0:
        return []
    lo, hi = (np.asarray(v, dtype=float) for v in domain)
    rng = _philox(seed)
    out = []
    tries = 0
    while len(out) < count and tries < SEED_MAX_DRAWS:
        batch = rng.uniform(lo, hi, size=(256, lo.shape[0]))
        tries += 256
        vals = np.asarray(trained.v(batch))
        hit = np.abs(vals - level) < rel_band * level
        if not hit.any():
            continue
        xs, vs = batch[hit], vals[hit]
        grads = np.asarray(trained.grad_v(xs), dtype=float)
        good = np.nonzero(np.abs(hj_residual(system, grads, xs)[0]) < ENERGY_TOL)[0]
        out += [CharState(x=xs[i].copy(), p=grads[i].copy(), v=float(vs[i]))
                for i in good[:count - len(out)]]
    if len(out) < count:
        raise SolverFailure(
            f"found only {len(out)} of {count} seeds near level {level:g} "
            f"after {tries} draws (empty level set or noisy gradients?)")
    return out


def trace_curves(system, seeds, h, v_max, domain, samples_per_curve,
                 transport, transport_every=1):
    """Integrate a batch of characteristics, each until its v reaches
    v_max, it leaves the domain box, or MAX_CURVE_STEPS steps pass.

    All live curves advance together through ``char_step``, which is what
    makes hundreds of 10^4-step curves cheap; the checks after each step
    are masks over the live rows, and the samples go into preallocated
    (curves, samples_per_curve, .) arrays, from which the CharStates are
    built once at the end.  Samples are recorded uniformly in v (not in
    s) so level bands are covered evenly: a step that crosses one or more
    of a curve's samples_per_curve levels records its end state once.
    Short curves simply return fewer samples.  Two guards cut a curve whose
    discrete state stops being a trustworthy characteristic: an energy
    drift beyond ENERGY_TOL (the costate growth outran the step size),
    and a costate collapse (p^T A p falling to a tiny fraction of its seed
    value, which happens when the curve runs into a critical point of the
    flow and would afterwards coast along plain trajectories while its
    accumulated v is stale).

    log_z accumulates -h c(x_k), with c the transport coefficient callable
    ``transport``; it receives an (alive, n) block.  With transport_every
    = k the coefficient is refreshed every k steps and held over the
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

    h0 = hj_residual(system, p, x)[0]
    levels = v[:, None] + (v_max - v)[:, None] * (np.arange(samples_per_curve) + 1) / samples_per_curve
    rate_floor = STALL_RATE_FRACTION * _quad(p, system.a)
    next_level = np.zeros(c, dtype=int)
    drift_max = np.zeros(c)
    reasons = np.array(["step_limit"] * c, dtype=object)
    alive = v < v_max
    reasons[~alive] = "reached_v_max"
    # Sample k of curve j is row [j, k] of (x, p) and of (v, log_z, s).
    n_samples = np.zeros(c, dtype=int)
    sample_x = np.empty((c, samples_per_curve, x.shape[1]))
    sample_p = np.empty_like(sample_x)
    sample_vzs = np.empty((c, samples_per_curve, 3))

    c_cache = np.zeros(c)
    for step_no in range(MAX_CURVE_STEPS):
        if not alive.any():
            break
        idx = np.nonzero(alive)[0]
        xk = x[idx]
        xi, p_next, dv, converged = char_step(system, xk, p[idx], h)
        if step_no % transport_every == 0:
            c_cache[idx] = np.asarray(transport(xk), dtype=float)
        logz[idx] -= h * c_cache[idx]
        x[idx], p[idx] = xi, p_next
        v[idx] += dv
        s_par[idx] += h

        energy_drift = np.abs(hj_residual(system, p_next, xi)[0] - h0[idx])
        stalled = _quad(p_next, system.a) < rate_floor[idx]
        bad = ~converged | (energy_drift > ENERGY_TOL) | stalled
        ok = idx[~bad]
        drift_max[ok] = np.maximum(drift_max[ok], energy_drift[~bad])
        reasons[idx[bad]] = np.where(stalled[bad], "stalled", "solver_failure")
        alive[idx[bad]] = False

        # Each row's levels rise and v never falls, so the levels reached
        # so far are a prefix; a step crossing several records one sample.
        reached = np.sum(v[ok, None] >= levels[ok] - 1e-15, axis=1)
        crossed = ok[reached > next_level[ok]]
        next_level[ok] = np.maximum(next_level[ok], reached)
        k = n_samples[crossed]
        sample_x[crossed, k] = x[crossed]
        sample_p[crossed, k] = p[crossed]
        sample_vzs[crossed, k] = np.stack([v[crossed], logz[crossed], s_par[crossed]], axis=1)
        n_samples[crossed] += 1

        done = (next_level[ok] >= samples_per_curve) | (v[ok] >= v_max)
        left = ~done & (np.any(x[ok] < lo, axis=1) | np.any(x[ok] > hi, axis=1))
        reasons[ok[done]] = "reached_v_max"
        reasons[ok[left]] = "left_domain"
        alive[ok[done | left]] = False

    return [CharacteristicCurve(
        states=[CharState(x=sample_x[j, k], p=sample_p[j, k], v=float(sample_vzs[j, k, 0]),
                          log_z=float(sample_vzs[j, k, 1]), s=float(sample_vzs[j, k, 2]))
                for k in range(n_samples[j])],
        reason=str(reasons[j]), h0=float(h0[j]), max_energy_drift=float(drift_max[j]))
        for j in range(c)]


# ---------------------------------------------------------------------------
# Simplified minimum action method (fixed horizons, fixed endpoints).
# ---------------------------------------------------------------------------

_LBFGS_MEMORY = 10
_LBFGS_MAX_ITER = 10_000
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 40
_REL_DECREASE_TOL = 1e-12


def _lbfgs(fg, x0):
    """Minimize ``fg(x) -> (value, flat gradient)`` from ``x0`` by L-BFGS with
    Armijo backtracking (Nocedal & Wright, Numerical Optimization, Alg. 7.4);
    return the last iterate and its value.  A non-finite value raises, and a
    line search without decrease ends the run.  ``fg`` may write into x0."""
    x = np.array(x0, dtype=float)
    f, g = fg(x)
    if not np.isfinite(f):
        raise SolverFailure("non-finite value at the start")
    pairs = deque(maxlen=_LBFGS_MEMORY)
    for _ in range(_LBFGS_MAX_ITER):
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (y @ q)) * s
        slope = -(g @ q)
        if not slope < 0:  # stationary
            break
        t = 1.0 if pairs else 1.0 / np.linalg.norm(g)  # the first step has unit length
        for _ in range(_MAX_BACKTRACKS):
            x_new = x - t * q
            f_new, g_new = fg(x_new)
            if not np.isfinite(f_new):
                raise SolverFailure("non-finite value in the line search")
            if f_new <= f + _ARMIJO_C1 * t * slope:
                break
            t *= _BACKTRACK_FACTOR
        else:
            break
        if f - f_new <= _REL_DECREASE_TOL * abs(f):
            return x_new, f_new
        s, y = x_new - x, g_new - g
        if s @ y > 0:  # else the pair would break the inverse Hessian's definiteness
            pairs.append((s, y, 1.0 / (s @ y)))
        x, f, g = x_new, f_new, g_new
    return x, f


def _discrete_action(system, nodes, dt, a_inv):
    """Trapezoid rule for  int 1/2 (phi' - f)^T A^-1 (phi' - f) ds  and its gradient
    over all nodes (zero at the fixed ends); a diverging path overflows to inf."""
    with np.errstate(over="ignore"):
        vel = np.diff(nodes, axis=0) / dt
        f = system.drift(nodes)
        da, db = vel - f[:-1], vel - f[1:]
        ra, rb = da @ a_inv, db @ a_inv
        value = 0.25 * dt * float(np.sum(da * ra) + np.sum(db * rb))
        grad = np.zeros_like(nodes)
        # d/d phi_k of the velocity terms of segments k-1 and k.
        grad[1:-1] += 0.5 * (ra[:-1] + rb[:-1] - ra[1:] - rb[1:])
        # d/d phi_k of f(phi_k) inside segments k-1 (right end) and k (left end).
        jac = system.drift_jacobian(nodes[1:-1])
        grad[1:-1] -= 0.5 * dt * np.einsum("bij,bi->bj", jac, rb[:-1] + ra[1:])
    return value, grad


def min_action_estimate(system, x_target, surface_points, n_nodes, level_value=0.0,
                        horizons=(0.5, 1.0, 2.0, 5.0)):
    """Quasi-potential upper bound  C + min over horizons and surface starts of
    the discrete action on n_nodes fixed steps from {V = C} to the target,
    minimized over the interior nodes, and the best ActionPath.  The infimum
    sits at a finite horizon, which the default horizons bracket."""
    if np.linalg.eigvalsh(system.a).min() <= 0:
        raise ValueError("diffusion matrix must be positive definite for the action")
    a_inv = np.linalg.inv(system.a)
    starts = _as_batch(surface_points, system.dim_state)
    paths = []
    for horizon in horizons:
        dt = horizon / n_nodes
        for y in starts:  # a straight path from each start
            nodes = np.linspace(y, x_target, n_nodes + 1)
            def fg(z):
                nodes[1:-1] = z.reshape(-1, nodes.shape[1])
                value, grad = _discrete_action(system, nodes, dt, a_inv)
                return value, grad[1:-1].ravel()
            z, action = _lbfgs(fg, nodes[1:-1].ravel())
            nodes[1:-1] = z.reshape(-1, nodes.shape[1])
            paths.append(ActionPath(nodes=nodes, dt=dt, action=action))
    best = min(paths, key=lambda path: path.action)  # empty starts raise ValueError
    return level_value + best.action, best
