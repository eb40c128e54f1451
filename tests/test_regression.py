import numpy as np
import pytest

from deepwkb.pipeline import RunConfig
from deepwkb.regression import (PointData, _empty_table, apply_far_field_threshold,
                                build_design_matrix, build_response,
                                extrapolate_z0_attractor, regress_point,
                                solve_rescaled_ls)


def ou_point_data(x, eps, n0=None, n=None):
    """Exact OU densities (pi eps)^-1/2 exp(-x^2/eps) with chosen counts."""
    eps = np.asarray(eps, dtype=float)
    u = (np.pi * eps) ** -0.5 * np.exp(-x * x / eps)
    n0 = np.full(eps.shape, 1e6) if n0 is None else np.asarray(n0, dtype=float)
    n = np.full(eps.shape, 1e12) if n is None else np.asarray(n, dtype=float)
    return PointData(eps=eps, u_hat=u, n0=n0, n=n)


def test_design_matrix_rows():
    a = build_design_matrix([0.1, 0.2])
    assert np.allclose(a, [[-10.0, 1.0, 0.1], [-5.0, 1.0, 0.2]])


def test_design_matrix_structure():
    a = build_design_matrix(np.linspace(0.05, 0.5, 10))
    assert np.array_equal(a[:, 1], np.ones(10))
    assert np.linalg.matrix_rank(a) == 3


def test_ladder_invariants():
    # The regression reads its noise ladder from the run configuration,
    # which rejects ladders the K x 3 model cannot use.
    def config(ladder):
        return RunConfig({"benchmark": {"name": "ou1d", "params": {}},
                          "ladder": ladder,
                          "grid": {"lower": [-2.0], "upper": [2.0], "bins": [16]}})

    assert config([0.1, 0.2, 0.3, 0.4])["ladder"] == [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(ValueError, match="ladder"):
        config([0.1, 0.2, 0.3])          # K <= 3
    with pytest.raises(ValueError, match="ladder"):
        config([0.1, 0.2, 0.2, 0.3])     # not strictly increasing
    with pytest.raises(ValueError, match="ladder"):
        config([-0.1, 0.2, 0.3, 0.4])


def test_response_weights():
    data = PointData(eps=np.array([0.1, 0.2, 0.3, 0.4]),
                     u_hat=np.full(4, 2.0),
                     n0=np.full(4, 100.0), n=np.full(4, 1e6))
    _, d, keep = build_response(data, dims=(1, 1))  # n = d: no correction
    assert keep.all()
    assert np.allclose(d, np.sqrt(100.0 / (1.0 - 1e-4)))
    assert d[0] == pytest.approx(10.0005, abs=1e-4)


def test_response_correction_term():
    # n = d makes the eps-scaling correction vanish: entry = log u
    data = PointData(eps=np.array([0.1, 0.2, 0.3, 0.4]),
                     u_hat=np.full(4, 2.0),
                     n0=np.full(4, 50.0), n=np.full(4, 1e6))
    resp, _, _ = build_response(data, dims=(2, 2))
    assert np.allclose(resp, np.log(2.0))
    # ou1d (n=1, d=0): log u + 1/2 log eps = -1/2 log pi at x = 0
    data = ou_point_data(0.0, [0.25, 0.3, 0.35, 0.4])
    resp, _, _ = build_response(data, dims=(1, 0))
    assert np.allclose(resp, -0.5 * np.log(np.pi))
    assert resp[0] == pytest.approx(-0.5724, abs=1e-4)


def test_exact_linear_model_recovered():
    eps = np.linspace(0.1, 0.5, 6)
    design = build_design_matrix(eps)
    response = -1.0 / eps  # V = 1, log Z0 = 0, slope = 0
    for d in [np.ones(6), np.linspace(1.0, 9.0, 6)]:
        beta, resid, rss, _ = solve_rescaled_ls(design, d, response)
        assert np.allclose(beta, [1.0, 0.0, 0.0], atol=1e-12)
        assert rss < 1e-24


def test_projection_annihilates_design(rng):
    eps = np.linspace(0.04, 0.36, 10)
    design = build_design_matrix(eps)
    d = rng.uniform(1.0, 30.0, size=10)
    da = d[:, None] * design
    p = da @ np.linalg.inv(da.T @ da) @ da.T
    assert np.max(np.abs((p - np.eye(10)) @ da)) < 1e-10


def test_pythagoras(rng):
    eps = np.linspace(0.04, 0.36, 10)
    design = build_design_matrix(eps)
    d = rng.uniform(1.0, 30.0, size=10)
    response = rng.normal(size=10)
    beta, resid, rss, _ = solve_rescaled_ls(design, d, response)
    du = d * response
    fitted = d[:, None] * design @ beta
    assert np.linalg.norm(du) ** 2 == pytest.approx(np.linalg.norm(fitted) ** 2 + rss, rel=1e-8)


def test_rank_deficiency_raises():
    # Only two distinct levels leave two distinct rows: rank 2 < 3.
    eps = np.array([0.1, 0.1, 0.2, 0.2])
    design = build_design_matrix(eps)
    with pytest.raises(np.linalg.LinAlgError):
        solve_rescaled_ls(design, np.ones(4), np.ones(4))


def test_rescaled_rss_follows_chi2(rng):
    # Monte Carlo over the model  u = A beta + D^-1 z,  z ~ N(0, I):
    # the rescaled RSS must follow chi^2(K - 3) = chi^2(7).
    eps = np.linspace(0.04, 0.36, 10)
    design = build_design_matrix(eps)
    d = rng.uniform(2.0, 40.0, size=10)
    beta0 = np.array([0.7, -0.3, 1.1])
    base = design @ beta0
    reps = 10_000
    z = rng.standard_normal((reps, 10))
    rss = np.empty(reps)
    for k in range(reps):
        _, _, rss[k], _ = solve_rescaled_ls(design, d, base + z[k] / d)
    assert rss.mean() == pytest.approx(7.0, abs=0.1)
    assert rss.var(ddof=1) == pytest.approx(14.0, abs=0.5)


def test_standard_errors_match_monte_carlo_spread(rng):
    # Monte Carlo over the model  u = A beta + D^-1 z,  z ~ N(0, I):
    # the spread of (v_hat, log_z0_hat) across replicates must match the
    # reported se_v and se_log_z0.  n = d removes the eps-scaling term, so
    # the response is log u_hat itself.
    eps = np.linspace(0.04, 0.36, 10)
    design = build_design_matrix(eps)
    n0 = rng.uniform(200.0, 2000.0, size=10)
    n = np.full(10, 1e9)
    d = np.sqrt(n0 / (1.0 - n0 / n))
    base = design @ np.array([0.7, -0.3, 1.1])
    reps = 10_000
    z = rng.standard_normal((reps, 10))
    est = np.empty((reps, 2))
    se = set()
    for k in range(reps):
        data = PointData(eps=eps, u_hat=np.exp(base + z[k] / d), n0=n0, n=n)
        r = regress_point(data, (1, 1), np.zeros(1))
        est[k] = r.v_hat, r.log_z0_hat
        se.add((r.se_v, r.se_log_z0))
    assert len(se) == 1  # the errors depend on the design and counts only
    se_v, se_log_z0 = se.pop()
    sd = est.std(axis=0, ddof=1)
    assert sd[0] == pytest.approx(se_v, rel=0.03)
    assert sd[1] == pytest.approx(se_log_z0, rel=0.03)


def test_regress_point_exact_ou():
    eps = np.linspace(0.2, 0.6, 10) ** 2
    data = ou_point_data(1.0, eps)
    r = regress_point(data, (1, 0), np.ones(1))
    assert r.v_hat == pytest.approx(1.0, abs=1e-9)
    assert r.log_z0_hat == pytest.approx(-0.5 * np.log(np.pi), abs=1e-9)
    assert r.slope == pytest.approx(0.0, abs=1e-8)
    assert r.rss_rescaled < 1e-12
    assert r.used_rows == 10 and r.dof == 7 and r.reliable
    assert np.isfinite(r.se_v) and r.se_v > 0
    assert np.isfinite(r.se_log_z0) and r.se_log_z0 > 0


def test_regress_point_excludes_thin_rows():
    eps = np.linspace(0.1, 0.5, 8)
    n0 = np.array([5, 5, 5, 5, 5, 100, 100, 100], dtype=float)
    data = PointData(eps=eps, u_hat=np.full(8, 0.5), n0=n0, n=np.full(8, 1e6))
    assert regress_point(data, (1, 0), np.zeros(1)) is None  # 3 usable rows
    n0[4] = 100
    r = regress_point(data, (1, 0), np.zeros(1))
    assert r is not None and r.used_rows == 4 and r.dof == 1


def test_scaling_equivariance():
    eps = np.linspace(0.05, 0.4, 8)
    rng = np.random.default_rng(3)
    u = np.exp(rng.normal(size=8))
    base = PointData(eps=eps, u_hat=u, n0=np.full(8, 400.0), n=np.full(8, 1e8))
    scaled = PointData(eps=eps, u_hat=np.e * u, n0=np.full(8, 400.0), n=np.full(8, 1e8))
    r0 = regress_point(base, (2, 1), np.zeros(2))
    r1 = regress_point(scaled, (2, 1), np.zeros(2))
    assert r1.v_hat == pytest.approx(r0.v_hat, abs=1e-12)
    assert r1.slope == pytest.approx(r0.slope, abs=1e-12)
    assert r1.log_z0_hat - r0.log_z0_hat == pytest.approx(1.0, abs=1e-12)


def test_synthetic_recovery_noiseless(rng):
    eps = np.linspace(0.03, 0.3, 12)
    dims = (3, 1)
    for _ in range(10):
        v, logz, slope = rng.uniform(0.1, 2.0), rng.normal(), rng.normal()
        log_u = -v / eps + logz + slope * eps - 0.5 * (dims[0] - dims[1]) * np.log(eps)
        data = PointData(eps=eps, u_hat=np.exp(log_u),
                         n0=rng.uniform(50, 500, size=12), n=np.full(12, 1e9))
        r = regress_point(data, dims, np.zeros(dims[0]))
        assert abs(r.v_hat - v) < 1e-9
        assert abs(r.log_z0_hat - logz) < 1e-9
        assert abs(r.slope - slope) < 1e-9


def test_far_field_threshold_flags():
    eps = np.linspace(0.2, 0.6, 10) ** 2
    xs = np.linspace(0.0, 1.4, 40)
    results = [regress_point(ou_point_data(x, eps), (1, 0), np.array([x])) for x in xs]
    table = _empty_table(xs[:, None])
    table["v_hat"] = [r.v_hat for r in results]
    table["used_rows"] = [r.used_rows for r in results]
    thr = apply_far_field_threshold(table, percentile=95.0)
    vals = table["v_hat"]
    flags = table["reliable"] == 1
    assert np.array_equal(flags, vals <= thr)
    assert flags.sum() == 38  # 95th percentile keeps all but the top two


def test_extrapolation_examples():
    # exact linear model: u = eps^-1/2 (1 + 2 eps), n - d = 1 -> intercept 1
    eps = np.array([0.05, 0.1, 0.2, 0.4])
    data = PointData(eps=eps, u_hat=eps**-0.5 * (1 + 2 * eps),
                     n0=np.full(4, 100.0), n=np.full(4, 1e6))
    assert extrapolate_z0_attractor(data, dims=(1, 0)) == pytest.approx(1.0, abs=1e-12)
    # constant data: intercept is the constant
    data = PointData(eps=eps, u_hat=np.full(4, 3.3), n0=np.full(4, 100.0), n=np.full(4, 1e6))
    assert extrapolate_z0_attractor(data, dims=(1, 1)) == pytest.approx(3.3, abs=1e-12)
    # exact OU at the attractor point
    data = ou_point_data(0.0, eps)
    assert extrapolate_z0_attractor(data, dims=(1, 0)) == pytest.approx(np.pi**-0.5, abs=1e-12)


def test_extrapolation_needs_two_rows():
    eps = np.array([0.05, 0.1, 0.2, 0.4])
    data = PointData(eps=eps, u_hat=np.full(4, 1.0),
                     n0=np.array([100.0, 3.0, 3.0, 3.0]), n=np.full(4, 1e6))
    with pytest.raises(ValueError):
        extrapolate_z0_attractor(data, dims=(1, 0))
