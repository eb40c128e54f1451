"""Per-point multi-noise least squares for (V, log Z0, slope).

At a collocation point the log empirical densities across the noise
ladder eps_1 < ... < eps_K obey, up to sampling error and O(eps^2),

    log u_hat(eps) + (n - d)/2 * log eps  =  -V / eps + log Z0 + slope * eps,

so a K x 3 linear model with rows (-1/eps, 1, eps) recovers V, log Z0
and the combined first-order coefficient.  Rows are rescaled by
D_ii = sqrt(N0_i / (1 - N0_i/N)) so the sampling errors become standard
normal; the rescaled squared residual then follows chi^2(K - 3) when the
WKB form holds.  One routine, _rescaled_ls, solves the least squares
through an orthogonal factorization rather than the normal equations:
the -1/eps column dominates at small eps and conditioning matters.  It
serves the rescaled fit and, with unit weights, the plain one.

Each point also reports standard errors for V and log Z0, the square
roots of the diagonal of the rescaled covariance ((DA)^T DA)^-1 =
R^-1 R^-T.  No variance is re-estimated from the residual: the rescaled
sampling errors are unit normal by construction.  The slope column is
nearly collinear with the intercept over the ladder, so where the
small-eps rows are thin it dominates the uncertainty of log Z0.

The results of a run are one table, a numpy structured array with one
row per collocation point, which ``regression.npy`` stores as it is.
Its columns, in order: point (n,), v_hat, log_z0_hat, slope, rss_plain,
rss_rescaled, dof, used_rows, reliable (0 or 1), u_top (the empirical
density at the largest noise level), se_v, se_log_z0.  An excluded
point, with fewer than 4 usable levels, is a row with used_rows == 0:
every column but point and u_top holds 0.

The ladder is read once per set of points (each histogram's count, the
totals, u_hat = N0 / (h N)).  regress_point fits one collocation point's
row of that read, and extrapolate_z0_attractor, the prefactor's eps -> 0
target, one attractor point's.  A level is usable where its count is at
least min_count; both return None for a point with too few usable levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DEFAULT_MIN_COUNT

__all__ = [
    "RegressionResult",
    "regress_point",
    "regress_collocation",
    "apply_far_field_threshold",
    "extrapolate_z0_attractor",
]


# The regression table's columns after ``point``, in their stored order.
_COLUMNS = [("v_hat", "f8"), ("log_z0_hat", "f8"), ("slope", "f8"),
            ("rss_plain", "f8"), ("rss_rescaled", "f8"), ("dof", "i8"),
            ("used_rows", "i8"), ("reliable", "i8"), ("u_top", "f8"),
            ("se_v", "f8"), ("se_log_z0", "f8")]
# The columns regress_point fills; the far-field rule sets reliable.
_FIT_COLUMNS = [name for name, _ in _COLUMNS if name not in ("reliable", "u_top")]


@dataclass
class RegressionResult:
    point: np.ndarray
    v_hat: float
    log_z0_hat: float
    slope: float
    rss_plain: float
    rss_rescaled: float
    dof: int
    used_rows: int
    reliable: bool
    se_v: float
    se_log_z0: float


def _rescaled_ls(design, weights, response):
    """Solve  min_beta ||D A beta - D u||^2  via QR for the ``design`` A,
    the row ``weights`` D and the ``response`` u; returns (beta,
    ||D A beta - D u||^2, R) with R the triangular factor of D A.

    Duplicate noise levels make D A rank deficient and raise.
    """
    da = weights[:, None] * design
    du = weights * response
    q, rmat = np.linalg.qr(da)
    diag = np.abs(np.diag(rmat))
    if np.any(diag < 1e-12 * diag.max()):
        raise np.linalg.LinAlgError("design matrix is rank deficient")
    beta = np.linalg.solve(rmat, q.T @ du)
    resid = da @ beta - du
    return beta, float(resid @ resid), rmat


def regress_point(eps, n0, n, u_hat, dims, point,
                  min_count=DEFAULT_MIN_COUNT) -> RegressionResult | None:
    """Full per-point estimate at the collocation point ``point`` from its
    ladder read: the (K,) eps, counts N0, totals N and densities u_hat.
    Levels with fewer than min_count samples are left out of the fit;
    returns None, the point excluded, when fewer than 4 levels remain.

    v_hat is reported as fitted even when slightly negative; clipping is
    left to the training stage.  A fit whose v_hat is not NaN is flagged
    reliable; in the table apply_far_field_threshold sets the flags.
    """
    keep = n0 >= max(min_count, 1)
    used = int(keep.sum())
    if used < 4:
        return None
    n_dim, d_attr = dims
    eps, n0 = eps[keep], n0[keep]
    # kept rows hold N0 >= 1, so u_hat = N0 / (h N) > 0
    response = np.log(u_hat[keep]) + 0.5 * (n_dim - d_attr) * np.log(eps)
    weights = np.sqrt(n0 / (1.0 - n0 / n[keep]))
    design = np.stack([-1.0 / eps, np.ones_like(eps), eps], axis=1)
    beta, rss, rmat = _rescaled_ls(design, weights, response)
    _, rss_plain, _ = _rescaled_ls(design, np.ones_like(weights), response)
    # covariance R^-1 R^-T of the rescaled fit: its diagonal is the row sums of R^-1 squared
    rinv = np.linalg.inv(rmat)
    se = np.sqrt(np.sum(rinv**2, axis=1))
    v_hat = float(beta[0])
    return RegressionResult(
        point=np.asarray(point, dtype=float),
        v_hat=v_hat,
        log_z0_hat=float(beta[1]),
        slope=float(beta[2]),
        rss_plain=rss_plain,
        rss_rescaled=rss,
        dof=used - 3,
        used_rows=used,
        reliable=not np.isnan(v_hat),
        se_v=float(se[0]),
        se_log_z0=float(se[1]),
    )


def _empty_table(points):
    """A regression table for the (M, n) ``points`` with every row excluded."""
    points = np.asarray(points, dtype=float)
    table = np.zeros(points.shape[0], dtype=[("point", "f8", points.shape[1:])] + _COLUMNS)
    table["point"] = points
    return table


def _ladder_read(histograms, points):
    """Each histogram's count at the (M, n) ``points``, binned once, in
    increasing eps: returns the (K,) eps, the (M, K) float counts N0, the
    (K,) totals N and the (M, K) u_hat = N0 / (h N)."""
    hists = sorted(histograms, key=lambda h: h.epsilon)
    h = hists[0].grid.bin_volume
    eps = np.array([hist.epsilon for hist in hists])
    totals = np.array([hist.total for hist in hists], dtype=float)
    flat, _ = hists[0].grid.flat_indices(points)
    counts = np.stack([hist.counts_at_flat(flat) for hist in hists], axis=1).astype(float)
    return eps, counts, totals, counts / (h * totals)


def regress_collocation(histograms, points, dims, min_count=DEFAULT_MIN_COUNT,
                        far_field_percentile=95.0):
    """Regress the (M, n) ``points`` over the noise ladder of ``histograms``.

    Each row of the ladder read goes to regress_point; u_top is the
    empirical density at the top level.
    Returns (table, far-field threshold), see apply_far_field_threshold.
    """
    eps, counts, totals, u_hat = _ladder_read(histograms, points)
    table = _empty_table(points)
    table["u_top"] = u_hat[:, -1]
    results = [regress_point(eps, n0, totals, u, dims, point, min_count=min_count)
               for point, n0, u in zip(table["point"], counts, u_hat)]
    fitted = np.array([r is not None for r in results], dtype=bool)
    for name in _FIT_COLUMNS:
        table[name][fitted] = [getattr(r, name) for r in results if r is not None]
    return table, apply_far_field_threshold(table, far_field_percentile)


def _extrapolate_attractor(histograms, points, dims, min_count=DEFAULT_MIN_COUNT):
    """extrapolate_z0_attractor on the ladder read at each of the (M, n)
    attractor ``points``; returns (the points with enough usable levels,
    their Z0)."""
    eps, counts, _, u_hat = _ladder_read(histograms, points)
    kept, z0 = [], []
    for point, n0, u in zip(np.asarray(points), counts, u_hat):
        z = extrapolate_z0_attractor(eps, n0, u, dims, min_count=min_count)
        if z is not None:
            kept.append(point)
            z0.append(z)
    return np.array(kept), np.array(z0)


def apply_far_field_threshold(table, percentile=95.0):
    """Set the reliable column of a regression table: a fitted row is
    reliable when its v_hat is at most the given percentile of v_hat over
    the fitted rows, recomputed per run.  Returns that threshold, inf when
    no row was fitted."""
    fitted = table["used_rows"] > 3
    v = table["v_hat"][fitted]
    threshold = float(np.percentile(v, percentile)) if v.size else np.inf
    table["reliable"] = fitted & (table["v_hat"] <= threshold)
    return threshold


def extrapolate_z0_attractor(eps, n0, u_hat, dims, min_count=DEFAULT_MIN_COUNT):
    """Prefactor on the attractor by linear extrapolation to eps = 0, from
    an attractor point's (K,) eps, counts N0 and densities u_hat; None when
    fewer than 2 levels hold at least min_count samples.

    With V = 0 the rescaled density  eps^((n-d)/2) u_hat  is linear in eps
    to first order; the OLS intercept over (1, eps) estimates Z0.
    """
    n_dim, d_attr = dims
    keep = n0 >= max(min_count, 1)
    if keep.sum() < 2:
        return None
    eps = eps[keep]
    y = eps ** (0.5 * (n_dim - d_attr)) * u_hat[keep]
    design = np.stack([np.ones_like(eps), eps], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])
