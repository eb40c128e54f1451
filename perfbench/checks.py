"""Output checks, computed apart from the program.

Each check returns a list of failure messages (empty when it passes).  The
bounds are fixed from sampling laws or float64 round-off, never from
stored copies of an earlier output:

* a regression t-statistic ``(estimate - oracle) / SE`` is N(0, 1) for a
  calibrated estimator, so ``max |t| < 5`` (Bonferroni: P(|t| > 5) is
  6e-7 per point, below 3e-4 over the few hundred points of a run, since
  a benchmark meets many seeds) and an RMS of t in [0.7, 1.4] (beyond
  4 sigma of the chi^2(n)/n spread for n >= 100);
* the Kolmogorov-Smirnov statistic of the rescaled residual sums is
  recomputed with scipy, and its p-value must reach 1e-4;
* gradients are compared with central differences of the loss value;
* closed-form outputs (the OU characteristics, WKB grid and residual on
  the exact solution) are recomputed here; the residual agrees with the
  program's to a relative 1e-9.
"""

from __future__ import annotations

import numpy as np

T_MAX = 5.0
T_RMS = (0.7, 1.4)
KS_MIN_P = 1e-4
FD_STEP = 1e-5
FD_TOL = 1e-6      # |fd - g.d| <= FD_TOL * |g| |d|
RECOMPUTE_RTOL = 1e-9
CURVE_V_TOL = 2e-3     # |v - x^2| on OU characteristics, as acceptance criterion 5
# The central-difference FP operator leaves O(h^2) of the exact OU density:
# 0.013 at 256 bins on [-2, 2] and eps = 0.09; a wrong density reads O(1).
FP_EXACT_MAX = 0.05


def t_statistics(estimate, oracle, se, label):
    """Failures of ``t = (estimate - oracle) / se`` against N(0, 1)."""
    t = (np.asarray(estimate, dtype=float) - np.asarray(oracle, dtype=float)) / np.asarray(se)
    if t.size < 50:
        return [f"{label}: only {t.size} points"]
    if not np.all(np.isfinite(t)):
        return [f"{label}: non-finite t-statistic"]
    out = []
    worst = float(np.max(np.abs(t)))
    rms = float(np.sqrt(np.mean(t**2)))
    if worst >= T_MAX:
        out.append(f"{label}: max |t| = {worst:.2f} >= {T_MAX}")
    if not T_RMS[0] <= rms <= T_RMS[1]:
        out.append(f"{label}: RMS t = {rms:.3f} outside {T_RMS}")
    return out


def ks_recompute(rss, dof, ks_statistic, p_value):
    """The program's KS statistic and p-value against scipy's, and the
    calibration of the pooled residual sums against chi^2(dof)."""
    from scipy import stats  # slow to import; only the checks need it

    res = stats.kstest(np.asarray(rss, dtype=float), stats.chi2(dof).cdf, method="asymp")
    out = []
    if not np.isclose(ks_statistic, res.statistic, rtol=RECOMPUTE_RTOL, atol=0.0):
        out.append(f"KS statistic {ks_statistic!r} != scipy {res.statistic!r}")
    if not np.isclose(p_value, res.pvalue, rtol=1e-6, atol=1e-12):
        out.append(f"KS p-value {p_value!r} != scipy {res.pvalue!r}")
    if res.pvalue < KS_MIN_P:
        out.append(f"rescaled RSS rejects chi^2({dof}): p = {res.pvalue:.2e}")
    return out


def retained_per_trajectory(total_time, dt, sample_interval, burn_in_fraction):
    """Samples one trajectory emits: every ``sample_interval`` after burn-in."""
    n_steps = round(total_time / dt)
    every = round(sample_interval / dt)
    burn = int(np.ceil(burn_in_fraction * n_steps))
    return n_steps // every - burn // every


def histogram_totals(hists, expected_total, aborted, all_inside):
    """Every level keeps all trajectories alive and bins every sample it
    was sent (all of them when the escape policy keeps samples inside)."""
    out = []
    for i, h in enumerate(hists):
        if aborted[i]:
            out.append(f"level {i}: {aborted[i]} trajectories aborted")
        if h.total != expected_total:
            out.append(f"level {i}: total {h.total} != {expected_total}")
        binned = h.binned_count
        if binned > h.total or (all_inside and binned != h.total):
            out.append(f"level {i}: {binned} binned of {h.total} samples")
    return out


def exact_ou_curves(curves, count, samples_per_curve):
    """Characteristics of V = x^2: every curve reaches v_max, V along it
    is x^2, and the transport rate c = div f + 1/2 tr(A V'') is 0."""
    out = []
    if len(curves) != count:
        out.append(f"{len(curves)} curves traced, {count} seeded")
    for k, c in enumerate(curves):
        if c.reason != "reached_v_max" or len(c.states) != samples_per_curve:
            out.append(f"curve {k}: {c.reason} after {len(c.states)} samples")
        for st in c.states:
            if abs(st.v - st.x[0] ** 2) > CURVE_V_TOL or st.log_z != 0.0:
                out.append(f"curve {k}: v {st.v:.6g}, log_z {st.log_z:.3g} at x {st.x[0]:.6g}")
                break
    return out


def l2_penalty(params):
    """1/2 lambda sum |W|^2 over the weight matrices (biases are free)."""
    return 0.5 * params.spec.l2_lambda * sum(float(np.sum(w * w)) for w, _ in params.layers)


def directional_fd(loss_fn, params, directions, step=FD_STEP, tol=FD_TOL):
    """Compare the loss gradient with central differences of its value.

    ``loss_fn(params) -> (value, flat gradient)``.  The gradient carries
    the weight penalty and the value does not, so the differences are
    taken of value + ``l2_penalty``.  ``params.flat`` is perturbed in
    place and restored.  Each direction is a unit vector.
    """
    def objective():
        return loss_fn(params)[0] + l2_penalty(params)

    value, grad = loss_fn(params)
    grad = np.asarray(grad, dtype=float)
    out = []
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        return [f"non-finite loss {value!r} or gradient"]
    base = params.flat.copy()
    scale = tol * float(np.linalg.norm(grad))
    try:
        for k, d in enumerate(directions):
            params.flat[:] = base + step * d
            up = objective()
            params.flat[:] = base - step * d
            down = objective()
            fd = (up - down) / (2.0 * step)
            exact = float(grad @ d)
            if abs(fd - exact) > scale:
                out.append(f"direction {k}: finite difference {fd:.10g} != gradient {exact:.10g}")
    finally:
        params.flat[:] = base
    return out


def unit_directions(size, count, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((count, size))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def fd_gradient(fn, x, h=1e-5):
    """Central-difference input gradient of a batched scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.shape[1]):
        e = np.zeros(x.shape[1])
        e[i] = h
        g[:, i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def fd_hessian(fn, x, h=1e-4):
    """Central-difference input Hessian of a batched scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    hess = np.empty((x.shape[0], n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        hess[:, i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)) / (4 * h * h)
            hess[:, i, j] = hess[:, j, i] = mixed
    return hess


def relative_match(label, program, recomputed, rtol):
    if not np.isclose(program, recomputed, rtol=rtol, atol=0.0):
        return [f"{label}: program {program!r} != recomputed {recomputed!r}"]
    return []


def mlp_forward(params, x):
    """Sigmoid MLP with a linear output, written out here from the layer
    weights, apart from the program's forward pass."""
    a = np.asarray(x, dtype=float)
    last = len(params.layers) - 1
    for k, (w, b) in enumerate(params.layers):
        z = a @ w.T + b
        a = z if k == last else 1.0 / (1.0 + np.exp(-z))
    return a[:, 0]


def fp_relative_residual_1d(drift, u, lower, upper, eps):
    """||-(f u)' + eps/2 u''|| / (eps ||u|| max(1, max|f'|)) on interior
    nodes, for unit diffusion in one dimension (f' = -1 for OU)."""
    u = np.asarray(u, dtype=float)
    h = (upper - lower) / u.shape[0]
    x = lower + (np.arange(u.shape[0]) + 0.5) * h
    fu = drift(x) * u
    res = -(fu[2:] - fu[:-2]) / (2 * h) + 0.5 * eps * (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    div = np.max(np.abs(np.gradient(drift(x), h)))
    return float(np.linalg.norm(res) / (eps * np.linalg.norm(u[1:-1]) * max(1.0, div)))
