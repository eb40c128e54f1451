"""Per-point multi-noise least squares for (V, log Z0, slope).

At a collocation point the log empirical densities across the noise
ladder eps_1 < ... < eps_K obey, up to sampling error and O(eps^2),

    log u_hat(eps) + (n - d)/2 * log eps  =  -V / eps + log Z0 + slope * eps,

so a K x 3 linear model with rows (-1/eps, 1, eps) recovers V, log Z0
and the combined first-order coefficient.  Rows are rescaled by
D_ii = sqrt(N0_i / (1 - N0_i/N)) so the sampling errors become standard
normal; the rescaled squared residual then follows chi^2(K - 3) when the
WKB form holds.  The least squares is solved through an orthogonal
factorization rather than the normal equations: the -1/eps column
dominates at small eps and conditioning matters.

Each point also reports standard errors for V and log Z0, the square
roots of the diagonal of the rescaled covariance ((DA)^T DA)^-1 =
R^-1 R^-T.  No variance is re-estimated from the residual: the rescaled
sampling errors are unit normal by construction.  The slope column is
nearly collinear with the intercept over the ladder, so where the
small-eps rows are thin it dominates the uncertainty of log Z0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DEFAULT_MIN_COUNT

__all__ = [
    "PointData",
    "RegressionResult",
    "build_design_matrix",
    "build_response",
    "solve_rescaled_ls",
    "regress_point",
    "regress_collocation",
    "apply_far_field_threshold",
    "extrapolate_z0_attractor",
    "export_csv",
]


@dataclass
class PointData:
    """Per-noise-level observations at one collocation point."""

    eps: np.ndarray     # (K,)
    u_hat: np.ndarray   # (K,) empirical densities N0/(hN)
    n0: np.ndarray      # (K,) bin counts
    n: np.ndarray       # (K,) total retained samples


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


def build_design_matrix(eps) -> np.ndarray:
    """K x 3 matrix with rows (-1/eps_i, 1, eps_i)."""
    eps = np.asarray(eps, dtype=float)
    return np.stack([-1.0 / eps, np.ones_like(eps), eps], axis=1)


def build_response(data: PointData, dims, min_count=DEFAULT_MIN_COUNT):
    """Log-density response vector and rescaling weights for one point.

    Rows with fewer than min_count samples are dropped.  Returns
    (response, d_weights, kept_mask); raises when fewer than 4 rows
    survive, in which case the point is excluded from regression.
    """
    n_dim, d_attr = dims
    keep = data.n0 >= max(min_count, 1)
    if keep.sum() < 4:
        raise InsufficientRowsError(int(keep.sum()))
    eps = data.eps[keep]
    u = data.u_hat[keep]
    if np.any(u <= 0):
        raise ValueError("kept rows must have positive empirical density")
    response = np.log(u) + 0.5 * (n_dim - d_attr) * np.log(eps)
    ratio = data.n0[keep] / data.n[keep]
    d_weights = np.sqrt(data.n0[keep] / (1.0 - ratio))
    return response, d_weights, keep


class InsufficientRowsError(ValueError):
    def __init__(self, rows):
        super().__init__(f"only {rows} usable noise levels (need at least 4)")
        self.rows = rows


def solve_rescaled_ls(design, d_weights, response):
    """Solve  min_beta ||D A beta - D u||^2  via QR; returns
    (beta, r, ||r||^2, R) with R the triangular factor of D A.

    The residual is  r = D A beta - D u.  Duplicate noise levels make
    D A rank deficient and raise.
    """
    da = d_weights[:, None] * design
    du = d_weights * response
    q, rmat = np.linalg.qr(da)
    diag = np.abs(np.diag(rmat))
    if np.any(diag < 1e-12 * diag.max()):
        raise np.linalg.LinAlgError("design matrix is rank deficient")
    beta = np.linalg.solve(rmat, q.T @ du)
    resid = da @ beta - du
    return beta, resid, float(resid @ resid), rmat


def regress_point(data: PointData, dims, point,
                  min_count=DEFAULT_MIN_COUNT) -> RegressionResult | None:
    """Full per-point estimate at the collocation point ``point``; returns
    None when the point is excluded.

    v_hat is reported as fitted even when slightly negative; clipping is
    left to the training stage.  A fit whose v_hat is not NaN is flagged
    reliable until apply_far_field_threshold compares it with the others.
    """
    try:
        response, dw, keep = build_response(data, dims, min_count=min_count)
    except InsufficientRowsError:
        return None
    design = build_design_matrix(data.eps[keep])
    beta, _, rss, rmat = solve_rescaled_ls(design, dw, response)
    _, _, rss_plain, _ = solve_rescaled_ls(design, np.ones_like(dw), response)
    # covariance R^-1 R^-T of the rescaled fit: its diagonal is the row sums of R^-1 squared
    rinv = np.linalg.inv(rmat)
    se = np.sqrt(np.sum(rinv**2, axis=1))
    used = int(keep.sum())
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
        reliable=not np.isnan(v_hat),  # build_response guarantees used > 3
        se_v=float(se[0]),
        se_log_z0=float(se[1]),
    )


def regress_collocation(colloc, eps, dims, grid,
                        min_count=DEFAULT_MIN_COUNT,
                        far_field_percentile=95.0):
    """Regress every collocation point over the noise ladder ``eps``, then
    fix reliability flags.

    The far-field threshold is the given percentile of v_hat over the
    points that survived row filtering, recomputed per run.  Returns
    (results, threshold) where results[i] is None for excluded points.
    """
    eps = np.asarray(eps, dtype=float)
    h = grid.bin_volume
    results = []
    for i in range(len(colloc)):
        n0 = np.array([colloc.counts[e][i] for e in eps], dtype=float)
        n = np.array([colloc.totals[e] for e in eps], dtype=float)
        data = PointData(eps=eps, u_hat=n0 / (h * n), n0=n0, n=n)
        results.append(regress_point(data, dims, colloc.points[i], min_count=min_count))
    threshold = apply_far_field_threshold(results, far_field_percentile)
    return results, threshold


def apply_far_field_threshold(results, percentile=95.0):
    """Recompute reliability flags against a percentile-based threshold."""
    v = np.array([r.v_hat for r in results if r is not None and r.used_rows > 3])
    if v.size == 0:
        return np.inf
    threshold = float(np.percentile(v, percentile))
    for r in results:
        if r is not None:
            r.reliable = r.used_rows > 3 and r.v_hat <= threshold
    return threshold


def extrapolate_z0_attractor(data: PointData, dims, min_count=DEFAULT_MIN_COUNT) -> float:
    """Prefactor on the attractor by linear extrapolation to eps = 0.

    With V = 0 the rescaled density  eps^((n-d)/2) u_hat  is linear in eps
    to first order; the OLS intercept over (1, eps) estimates Z0.
    """
    n_dim, d_attr = dims
    keep = data.n0 >= max(min_count, 1)
    if keep.sum() < 2:
        raise InsufficientRowsError(int(keep.sum()))
    eps = data.eps[keep]
    y = eps ** (0.5 * (n_dim - d_attr)) * data.u_hat[keep]
    design = np.stack([np.ones_like(eps), eps], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])


def export_csv(results, path):
    """(coords..., v_hat, log_z0_hat, slope, rss_rescaled, dof, reliable, se_v, se_log_z0)."""
    kept = [r for r in results if r is not None]
    if not kept:
        raise ValueError("no regression results to export")
    dim = kept[0].point.shape[0]
    with open(path, "w") as fh:
        cols = [f"x{i}" for i in range(dim)]
        fh.write(",".join(cols + ["v_hat", "log_z0_hat", "slope", "rss_rescaled", "dof",
                                  "reliable", "se_v", "se_log_z0"]) + "\n")
        for r in kept:
            coords = ",".join(f"{v:.17g}" for v in r.point)
            fh.write(f"{coords},{r.v_hat:.17g},{r.log_z0_hat:.17g},{r.slope:.17g},"
                     f"{r.rss_rescaled:.17g},{r.dof},{int(r.reliable)},"
                     f"{r.se_v:.17g},{r.se_log_z0:.17g}\n")
