import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import bdtrc, gammainc, gammaincinv

from deepwkb.regression import RegressionResult
from deepwkb.validation import (DEFAULT_SIGNIFICANCE, _binom_tail, chi2_cdf, chi2_quantile,
                                ks_test, validate_wkb)

from conftest import fresh_interpreter


def chi2_cdf_quadrature(x, k, nodes=200001):
    """Simpson integration of the chi^2 density; independent oracle.

    Substituting t = s^2 removes the fractional power at the origin, so
    the integrand is smooth and Simpson converges at full order.
    """
    s = np.linspace(0.0, np.sqrt(x), nodes)
    g = 2.0 * s ** (k - 1) * np.exp(-s * s / 2.0) / (2 ** (k / 2) * math.gamma(k / 2))
    h = s[1] - s[0]
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(g @ weights * h / 3.0)


def test_chi2_cdf_median_of_two_dof():
    assert chi2_cdf(2.0 * np.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)


def test_chi2_cdf_boundaries_and_errors():
    assert chi2_cdf(0.0, 5) == 0.0
    with pytest.raises(ValueError):
        chi2_cdf(-1.0, 5)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 2.5)


def test_chi2_cdf_against_quadrature():
    val = chi2_cdf(7.0, 7)
    assert val == pytest.approx(chi2_cdf_quadrature(7.0, 7), abs=1e-10)
    assert val == pytest.approx(0.5711, abs=1e-4)
    for x, k in [(2.5, 3), (11.0, 7), (30.0, 20)]:
        assert chi2_cdf(x, k) == pytest.approx(chi2_cdf_quadrature(x, k), abs=1e-9)


def test_chi2_cdf_monotone_to_one():
    xs = np.linspace(0.0, 80.0, 400)
    vals = chi2_cdf(xs, 7)
    assert np.all(np.diff(vals) >= 0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)


def test_chi2_quantile_inverts_cdf():
    for p in [0.1, 0.5, 0.9, 0.999]:
        q = chi2_quantile(p, 7)
        assert chi2_cdf(q, 7) == pytest.approx(p, abs=1e-9)


# scipy's incomplete gamma and binomial tail serve as oracles for the
# closed forms; the package itself does not import scipy.
@pytest.mark.parametrize("k", range(1, 31))
def test_chi2_cdf_matches_scipy(k):
    x = np.concatenate([np.geomspace(1e-12, 1.0, 100), np.linspace(0.0, 200.0, 2001)])
    np.testing.assert_allclose(chi2_cdf(x, k), gammainc(k / 2.0, x / 2.0), rtol=0.0, atol=1e-13)
    assert chi2_cdf(np.inf, k) == 1.0


@pytest.mark.parametrize("k", range(1, 31))
def test_chi2_quantile_matches_scipy(k):
    for p in (1e-3, 0.5, 0.999):
        assert chi2_quantile(p, k) == pytest.approx(2.0 * gammaincinv(k / 2.0, p), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 50, 88, 400, 1000])
def test_binomial_tail_matches_scipy_and_exact_sum(n):
    q = 1.0 - 0.999
    qf = Fraction(q)
    assert _binom_tail(0, n, q) == 1.0
    for k in range(1, 7):
        got = _binom_tail(k, n, q)
        if k > n:
            assert got == 0.0
            continue
        # 1 - P(X < k) in exact rationals of the float q.
        exact = float(1 - sum(math.comb(n, i) * qf**i * (1 - qf) ** (n - i) for i in range(k)))
        assert got == pytest.approx(exact, rel=1e-14, abs=0.0)
        assert got == pytest.approx(bdtrc(k - 1, n, q), rel=1e-12, abs=0.0)


def test_no_module_loads_scipy():
    # A fresh interpreter: this one has scipy loaded for the oracles.
    code = ("import importlib, pkgutil, sys, deepwkb.cli\n"
            "for m in pkgutil.iter_modules(deepwkb.__path__):\n"
            "    importlib.import_module('deepwkb.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert fresh_interpreter(code).strip() == "[]"


def test_ks_self_consistency():
    # chi^2(7) samples built from sums of squared normals: an independent
    # construction of the reference law.
    rng = np.random.default_rng(101)
    rejections = 0
    for _ in range(100):
        sample = (rng.standard_normal((10_000, 7)) ** 2).sum(axis=1)
        _, p = ks_test(sample, 7)
        if p <= 0.01:
            rejections += 1
    assert rejections <= 2


def test_ks_power_against_wrong_dof():
    rng = np.random.default_rng(7)
    sample = (rng.standard_normal((10_000, 9)) ** 2).sum(axis=1)
    d, p = ks_test(sample, 7)
    assert p < 0.01


def test_ks_constant_sample_degenerate():
    d, p = ks_test(np.full(100, 7.0), 7)
    assert d >= 0.5
    assert p < 1e-6


def test_ks_needs_minimum_sample():
    with pytest.raises(ValueError):
        ks_test(np.ones(10), 7)


def test_ks_probability_integral_transform_invariance():
    # Applying the reference CDF to the sample and testing against the
    # uniform CDF must give the identical statistic.
    rng = np.random.default_rng(11)
    sample = np.sort((rng.standard_normal((500, 7)) ** 2).sum(axis=1))
    d, _ = ks_test(sample, 7)
    u = chi2_cdf(sample, 7)  # already sorted, uniform CDF(u) = u
    n = u.shape[0]
    upper = (np.arange(1, n + 1) / n - u).max()
    lower = (u - np.arange(0, n) / n).max()
    assert d == pytest.approx(max(upper, lower), abs=0.0)


def _result(rss, reliable=True, dof=7, point=(0.0,)):
    return RegressionResult(point=np.asarray(point), v_hat=0.5, log_z0_hat=0.0,
                            slope=0.0, rss_plain=rss, rss_rescaled=rss,
                            dof=dof, used_rows=dof + 3, reliable=reliable,
                            se_v=0.01, se_log_z0=0.01)


def test_validate_wkb_accepts_true_model():
    rng = np.random.default_rng(23)
    rss = (rng.standard_normal((400, 7)) ** 2).sum(axis=1)
    results = [_result(r) for r in rss]
    report = validate_wkb(results, dof=7)
    assert report.passed and report.dof == 7
    assert report.n_tested == 400


def test_validate_wkb_rejects_inflated_rss():
    rng = np.random.default_rng(29)
    rss = 3.0 * (rng.standard_normal((400, 7)) ** 2).sum(axis=1)
    report = validate_wkb([_result(r) for r in rss], dof=7)
    assert not report.passed


def test_validate_wkb_exclusion_bookkeeping():
    rng = np.random.default_rng(31)
    rss = (rng.standard_normal((300, 7)) ** 2).sum(axis=1)
    results = [_result(r) for r in rss]
    results += [_result(5.0, reliable=False) for _ in range(7)]
    results += [_result(5.0, dof=5) for _ in range(9)]
    report = validate_wkb(results, dof=7)
    assert report.n_tested == 300
    assert report.n_excluded == 16


def test_validate_wkb_no_reliable_points():
    with pytest.raises(ValueError):
        validate_wkb([_result(5.0, reliable=False)], dof=7)


def test_report_text(tmp_path):
    rng = np.random.default_rng(37)
    rss = (rng.standard_normal((100, 7)) ** 2).sum(axis=1)
    report = validate_wkb([_result(r) for r in rss], dof=7)
    out = tmp_path / "report.txt"
    report.write(out)
    text = out.read_text()
    assert "wkb: holds" in text
    assert "dof: 7" in text
    assert "p_value:" in text


def _stratified_chi2_with_tail(count, n_tail, dof=7):
    """``count`` chi^2(dof) quantiles at (i + 1/2)/count, the largest
    ``n_tail`` of them moved just beyond the 0.999 quantile."""
    levels = (np.arange(count) + 0.5) / count
    rss = 2.0 * gammaincinv(dof / 2.0, levels)
    rss[count - n_tail:] = 1.01 * 2.0 * gammaincinv(dof / 2.0, 0.999)
    return rss


def test_tail_rule_allows_one_exceedance_among_few_points():
    # A correct model puts one of 88 points beyond the 0.999 quantile
    # with probability 1 - 0.999^88 = 8.4%; that alone must not fail it.
    report = validate_wkb([_result(r) for r in _stratified_chi2_with_tail(88, 1)], dof=7)
    assert report.tail_fraction == pytest.approx(1 / 88)
    assert report.passed


def test_tail_rule_rejects_many_exceedances():
    report = validate_wkb([_result(r) for r in _stratified_chi2_with_tail(88, 5)], dof=7)
    assert report.p_value >= DEFAULT_SIGNIFICANCE  # the KS test alone would pass
    assert not report.passed
