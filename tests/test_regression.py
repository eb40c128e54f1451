import numpy as np
import pytest

from deepwkb.density import DensityHistogram, GridSpec
from deepwkb.pipeline import RunConfig
from deepwkb.regression import (_empty_table, _extrapolate_attractor, _rescaled_ls,
                                apply_far_field_threshold, extrapolate_z0_attractor,
                                regress_point)


def design_matrix(eps):
    """The K x 3 model with rows (-1/eps_i, 1, eps_i)."""
    eps = np.asarray(eps, dtype=float)
    return np.stack([-1.0 / eps, np.ones_like(eps), eps], axis=1)


def ladder_row(eps, u_hat, n0, n):
    """One point's ladder read (eps, N0, N, u_hat) as float arrays."""
    return tuple(np.broadcast_to(np.asarray(a, dtype=float), np.shape(eps))
                 for a in (eps, n0, n, u_hat))


def ou_point_data(x, eps, n0=None, n=None):
    """Exact OU densities (pi eps)^-1/2 exp(-x^2/eps) with chosen counts."""
    eps = np.asarray(eps, dtype=float)
    u = (np.pi * eps) ** -0.5 * np.exp(-x * x / eps)
    return ladder_row(eps, u, 1e6 if n0 is None else n0, 1e12 if n is None else n)


def test_design_matrix_rows():
    # Each column of the fit is one of (-1/eps, 1, eps): a response equal
    # to one column is fitted by that coefficient alone.  n = d: the
    # response is log u_hat itself.
    eps = np.array([0.1, 0.2, 0.3, 0.4])
    for log_u, beta in [(-1.0 / eps, [1, 0, 0]), (np.ones(4), [0, 1, 0]), (eps, [0, 0, 1])]:
        r = regress_point(*ladder_row(eps, np.exp(log_u), 100.0, 1e6), (1, 1), np.zeros(1))
        assert np.allclose([r.v_hat, r.log_z0_hat, r.slope], beta, atol=1e-10)
        assert r.rss_rescaled < 1e-20


def test_design_matrix_structure():
    # The intercept column is ones, and ten distinct levels give full rank 3.
    eps = np.linspace(0.05, 0.5, 10)
    r = regress_point(*ladder_row(eps, np.full(10, 2.5), 100.0, 1e6), (1, 1), np.zeros(1))
    assert r.log_z0_hat == pytest.approx(np.log(2.5), abs=1e-12)
    assert abs(r.v_hat) < 1e-12 and abs(r.slope) < 1e-10
    _, _, rmat = _rescaled_ls(design_matrix(eps), np.ones(10), np.zeros(10))
    assert np.all(np.abs(np.diag(rmat)) > 1e-12)


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
    # Rows are rescaled by D = sqrt(N0 / (1 - N0/N)): with equal counts the
    # rescaled RSS is D^2 times the plain one.
    eps = np.array([0.1, 0.2, 0.3, 0.4])
    u = np.exp(np.array([0.3, -0.2, 0.5, 0.1]))
    r = regress_point(*ladder_row(eps, u, 100.0, 1e6), (1, 1), np.zeros(1))  # n = d: no correction
    assert r.used_rows == 4  # every row is kept
    d2 = 100.0 / (1.0 - 1e-4)
    assert r.rss_rescaled == pytest.approx(d2 * r.rss_plain, rel=1e-12)
    assert np.sqrt(d2) == pytest.approx(10.0005, abs=1e-4)


def test_response_correction_term():
    # n = d makes the eps-scaling correction vanish: response = log u
    eps = np.array([0.1, 0.2, 0.3, 0.4])
    r = regress_point(*ladder_row(eps, np.full(4, 2.0), 50.0, 1e6), (2, 2), np.zeros(2))
    assert r.log_z0_hat == pytest.approx(np.log(2.0), abs=1e-12)
    assert abs(r.v_hat) < 1e-12 and abs(r.slope) < 1e-10
    # ou1d (n=1, d=0): log u + 1/2 log eps = -1/2 log pi at x = 0
    r = regress_point(*ou_point_data(0.0, [0.25, 0.3, 0.35, 0.4]), (1, 0), np.zeros(1))
    assert r.log_z0_hat == pytest.approx(-0.5 * np.log(np.pi), abs=1e-9)
    assert abs(r.v_hat) < 1e-9 and abs(r.slope) < 1e-8
    assert r.log_z0_hat == pytest.approx(-0.5724, abs=1e-4)


def test_exact_linear_model_recovered():
    eps = np.linspace(0.1, 0.5, 6)
    design = design_matrix(eps)
    response = -1.0 / eps  # V = 1, log Z0 = 0, slope = 0
    for d in [np.ones(6), np.linspace(1.0, 9.0, 6)]:
        beta, rss, _ = _rescaled_ls(design, d, response)
        assert np.allclose(beta, [1.0, 0.0, 0.0], atol=1e-12)
        assert rss < 1e-24


def test_projection_annihilates_design(rng):
    eps = np.linspace(0.04, 0.36, 10)
    design = design_matrix(eps)
    d = rng.uniform(1.0, 30.0, size=10)
    da = d[:, None] * design
    # D A R^-1 has orthonormal columns, so it spans the projection's range
    _, _, rmat = _rescaled_ls(design, d, rng.normal(size=10))
    basis = da @ np.linalg.inv(rmat)
    p = basis @ basis.T
    assert np.max(np.abs((p - np.eye(10)) @ da)) < 1e-10


def test_pythagoras(rng):
    eps = np.linspace(0.04, 0.36, 10)
    design = design_matrix(eps)
    d = rng.uniform(1.0, 30.0, size=10)
    response = rng.normal(size=10)
    beta, rss, _ = _rescaled_ls(design, d, response)
    du = d * response
    fitted = d[:, None] * design @ beta
    assert np.linalg.norm(du) ** 2 == pytest.approx(np.linalg.norm(fitted) ** 2 + rss, rel=1e-8)


def test_rank_deficiency_raises():
    # Only two distinct levels leave two distinct rows: rank 2 < 3.
    eps = np.array([0.1, 0.1, 0.2, 0.2])
    design = design_matrix(eps)
    with pytest.raises(np.linalg.LinAlgError):
        _rescaled_ls(design, np.ones(4), np.ones(4))


def test_rescaled_rss_follows_chi2(rng):
    # Monte Carlo over the model  u = A beta + D^-1 z,  z ~ N(0, I):
    # the rescaled RSS must follow chi^2(K - 3) = chi^2(7).
    eps = np.linspace(0.04, 0.36, 10)
    design = design_matrix(eps)
    d = rng.uniform(2.0, 40.0, size=10)
    beta0 = np.array([0.7, -0.3, 1.1])
    base = design @ beta0
    reps = 10_000
    z = rng.standard_normal((reps, 10))
    rss = np.empty(reps)
    for k in range(reps):
        _, rss[k], _ = _rescaled_ls(design, d, base + z[k] / d)
    assert rss.mean() == pytest.approx(7.0, abs=0.1)
    assert rss.var(ddof=1) == pytest.approx(14.0, abs=0.5)


def test_standard_errors_match_monte_carlo_spread(rng):
    # Monte Carlo over the model  u = A beta + D^-1 z,  z ~ N(0, I):
    # the spread of (v_hat, log_z0_hat) across replicates must match the
    # reported se_v and se_log_z0.  n = d removes the eps-scaling term, so
    # the response is log u_hat itself.
    eps = np.linspace(0.04, 0.36, 10)
    design = design_matrix(eps)
    n0 = rng.uniform(200.0, 2000.0, size=10)
    n = np.full(10, 1e9)
    d = np.sqrt(n0 / (1.0 - n0 / n))
    base = design @ np.array([0.7, -0.3, 1.1])
    reps = 10_000
    z = rng.standard_normal((reps, 10))
    est = np.empty((reps, 2))
    se = set()
    for k in range(reps):
        r = regress_point(eps, n0, n, np.exp(base + z[k] / d), (1, 1), np.zeros(1))
        est[k] = r.v_hat, r.log_z0_hat
        se.add((r.se_v, r.se_log_z0))
    assert len(se) == 1  # the errors depend on the design and counts only
    se_v, se_log_z0 = se.pop()
    sd = est.std(axis=0, ddof=1)
    assert sd[0] == pytest.approx(se_v, rel=0.03)
    assert sd[1] == pytest.approx(se_log_z0, rel=0.03)


def test_regress_point_exact_ou():
    eps = np.linspace(0.2, 0.6, 10) ** 2
    r = regress_point(*ou_point_data(1.0, eps), (1, 0), np.ones(1))
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
    u, n = np.full(8, 0.5), np.full(8, 1e6)
    assert regress_point(eps, n0, n, u, (1, 0), np.zeros(1)) is None  # 3 usable rows
    n0[4] = 100
    r = regress_point(eps, n0, n, u, (1, 0), np.zeros(1))
    assert r is not None and r.used_rows == 4 and r.dof == 1


def test_scaling_equivariance():
    eps = np.linspace(0.05, 0.4, 8)
    rng = np.random.default_rng(3)
    u = np.exp(rng.normal(size=8))
    r0 = regress_point(*ladder_row(eps, u, 400.0, 1e8), (2, 1), np.zeros(2))
    r1 = regress_point(*ladder_row(eps, np.e * u, 400.0, 1e8), (2, 1), np.zeros(2))
    assert r1.v_hat == pytest.approx(r0.v_hat, abs=1e-12)
    assert r1.slope == pytest.approx(r0.slope, abs=1e-12)
    assert r1.log_z0_hat - r0.log_z0_hat == pytest.approx(1.0, abs=1e-12)


def test_synthetic_recovery_noiseless(rng):
    eps = np.linspace(0.03, 0.3, 12)
    dims = (3, 1)
    for _ in range(10):
        v, logz, slope = rng.uniform(0.1, 2.0), rng.normal(), rng.normal()
        log_u = -v / eps + logz + slope * eps - 0.5 * (dims[0] - dims[1]) * np.log(eps)
        r = regress_point(*ladder_row(eps, np.exp(log_u), rng.uniform(50, 500, size=12), 1e9),
                          dims, np.zeros(dims[0]))
        assert abs(r.v_hat - v) < 1e-9
        assert abs(r.log_z0_hat - logz) < 1e-9
        assert abs(r.slope - slope) < 1e-9


def test_far_field_threshold_flags():
    eps = np.linspace(0.2, 0.6, 10) ** 2
    xs = np.linspace(0.0, 1.4, 40)
    results = [regress_point(*ou_point_data(x, eps), (1, 0), np.array([x])) for x in xs]
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
    n0 = np.full(4, 100.0)
    assert extrapolate_z0_attractor(eps, n0, eps**-0.5 * (1 + 2 * eps),
                                    dims=(1, 0)) == pytest.approx(1.0, abs=1e-12)
    # constant data: intercept is the constant
    assert extrapolate_z0_attractor(eps, n0, np.full(4, 3.3),
                                    dims=(1, 1)) == pytest.approx(3.3, abs=1e-12)
    # exact OU at the attractor point
    eps, n0, _, u = ou_point_data(0.0, eps)
    assert extrapolate_z0_attractor(eps, n0, u, dims=(1, 0)) == pytest.approx(np.pi**-0.5,
                                                                             abs=1e-12)


def test_extrapolation_needs_two_rows():
    eps = np.array([0.05, 0.1, 0.2, 0.4])
    n0 = np.array([100.0, 3.0, 3.0, 3.0])
    assert extrapolate_z0_attractor(eps, n0, np.full(4, 1.0), dims=(1, 0)) is None
    n0[3] = 100.0
    assert extrapolate_z0_attractor(eps, n0, np.full(4, 1.0), dims=(1, 1)) == pytest.approx(1.0)


def test_extrapolation_skips_thin_attractor_points():
    # Four levels of 1,000 samples each on four bins of width 0.25.  Per
    # level, the counts of the bins centred at 0.125, 0.375, 0.625 and
    # 0.875; the rest fall off the grid.  With min_count 20, the second bin
    # has one usable level and the last none, so only the first and third
    # are extrapolated, in the order given, each from its constant density.
    grid = GridSpec((0.0,), (1.0,), (4,))
    counts = [[30, 30, 25, 0], [30, 5, 0, 0], [30, 5, 0, 19], [30, 5, 25, 0]]
    hists = []
    for eps, level in zip([0.4, 0.1, 0.2, 0.3], counts):  # any order: the read sorts them
        hist = DensityHistogram(grid, eps)
        hist.add_batch(np.repeat([0.125, 0.375, 0.625, 0.875, 5.0],
                                 level + [1000 - sum(level)])[:, None])
        hists.append(hist)
    points = np.array([[0.625], [0.375], [0.875], [0.125]])
    kept, z0 = _extrapolate_attractor(hists, points, (1, 1), min_count=20)
    np.testing.assert_array_equal(kept, [[0.625], [0.125]])
    np.testing.assert_allclose(z0, [25 / 250, 30 / 250], rtol=1e-12)
