"""Statistical test of the WKB hypothesis.

Under the WKB-plus-binomial-noise model the rescaled per-point residual
sum of squares follows chi^2(K - 3).  The pooled sample of RSS values
over reliable collocation points is therefore tested against that law
with a one-sample Kolmogorov-Smirnov test.  In addition the number of
points beyond the chi^2 0.999 quantile is tested against its
Binomial(n, 0.001) law.  Both tests together decide "holds" / "does not
hold".

The degrees of freedom are always an integer, and for integer k the
chi^2 law has exact closed forms in the standard ``math`` module
(Abramowitz & Stegun 26.4.4-26.4.5): with y = x / 2 the survival
function is a finite Poisson sum  e^{-y} sum_{j<k/2} y^j / j!  for even
k, and  erfc(sqrt(y)) + e^{-y} sum_{j<(k-1)/2} y^{j+1/2} / Gamma(j+3/2)
for odd k.  The quantile is found by bisection on that CDF and the
binomial tail is a finite sum, so the module needs no special-function
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ValidationReport", "chi2_cdf", "chi2_quantile", "ks_test", "validate_wkb"]

_KS_SERIES_TERMS = 100
DEFAULT_SIGNIFICANCE = 0.01
TAIL_QUANTILE = 0.999
MIN_SAMPLE = 50


@dataclass
class ValidationReport:
    rss: np.ndarray
    dof: int
    ks_statistic: float
    p_value: float
    tail_fraction: float
    passed: bool
    n_tested: int
    n_excluded: int

    def lines(self):
        verdict = "holds" if self.passed else "does not hold"
        return [
            f"dof: {self.dof}",
            f"points_tested: {self.n_tested}",
            f"points_excluded: {self.n_excluded}",
            f"rss_mean: {self.rss.mean():.6g}",
            f"rss_var: {self.rss.var(ddof=1):.6g}",
            f"ks_statistic: {self.ks_statistic:.6g}",
            f"p_value: {self.p_value:.6g}",
            f"tail_fraction: {self.tail_fraction:.6g}",
            f"significance: {DEFAULT_SIGNIFICANCE:g}",
            f"wkb: {verdict}",
        ]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.lines()) + "\n")


_erfc = np.vectorize(math.erfc, otypes=[float])


def chi2_cdf(x, k):
    """P(chi^2_k <= x) for a positive integer k, as 1 minus the closed-form
    survival function (see the module docstring)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi2_cdf requires x >= 0")
    if k != int(k) or k < 1:
        raise ValueError("chi2_cdf requires a positive integer k")
    k = int(k)
    # An infinite x becomes the largest float, where every term is 0.
    y = np.minimum(x / 2.0, np.finfo(float).max)
    half = (k % 2) / 2.0
    if half:
        sf = _erfc(np.sqrt(y))
        term = 2.0 * np.exp(-y) * np.sqrt(y / np.pi)  # e^{-y} y^{1/2} / Gamma(3/2)
    else:
        sf = np.zeros_like(y)
        term = np.exp(-y)
    # term = e^{-y} y^{j+h} / Gamma(j+h+1) with h = half, each from the last.
    for j in range(1, k // 2 + 1):
        sf += term
        term = term * y / (j + half)
    out = 1.0 - sf
    return float(out) if out.ndim == 0 else out


def chi2_quantile(p, k):
    """Inverse of chi2_cdf by bisection down to adjacent floats: the
    returned x has chi2_cdf(x, k) >= p, the float below it a CDF < p."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    lo, hi = 0.0, float(k)
    while chi2_cdf(hi, k) < p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if chi2_cdf(mid, k) < p:
            lo = mid
        else:
            hi = mid


def _binom_tail(k, n, q):
    """P(Binom(n, q) >= k), summed upward from the k-th term by the ratio
    of successive terms.  Exact to rounding while that first term does
    not underflow, that is for n q well below 700."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    term = math.exp(math.log(math.comb(n, k)) + k * math.log(q) + (n - k) * math.log1p(-q))
    odds = q / (1.0 - q)
    total = 0.0
    while term > 0.0:  # the factor n - k ends the sum at k = n
        total += term
        term *= (n - k) / (k + 1) * odds
        k += 1
    return total


def _kolmogorov_sf(lam):
    """Asymptotic Kolmogorov survival  Q(lam) = 2 sum (-1)^{j-1} e^{-2 j^2 lam^2}."""
    if lam <= 0:
        return 1.0
    j = np.arange(1, _KS_SERIES_TERMS + 1)
    terms = 2.0 * (-1.0) ** (j - 1) * np.exp(-2.0 * j**2 * lam**2)
    return float(min(max(terms.sum(), 0.0), 1.0))


def ks_test(sample, k):
    """One-sample KS test of ``sample`` against chi^2(k).

    Returns (D, p).  The p-value uses the asymptotic Kolmogorov law, which
    is adequate for the sample sizes the pipeline produces (>= 50).
    """
    sample = np.sort(np.asarray(sample, dtype=float))
    n = sample.shape[0]
    if n < MIN_SAMPLE:
        raise ValueError(f"KS test needs at least {MIN_SAMPLE} points, got {n}")
    cdf = chi2_cdf(sample, k)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    d = float(max(upper.max(), lower.max()))
    return d, _kolmogorov_sf(np.sqrt(n) * d)


def validate_wkb(results, dof) -> ValidationReport:
    """Pool rescaled RSS over reliable points and test against chi^2(dof).

    ``results`` holds one record per point, read through its ``reliable``,
    ``dof`` and ``rss_rescaled`` attributes: RegressionResult objects, or
    the rows of the regression table viewed as a ``np.recarray``; no entry
    may be None.  ``dof`` is K - 3 for the K-level ladder.  Points
    flagged unreliable or with a row count different from the ladder's
    (mismatched dof) are excluded.  The hypothesis holds when the pooled
    KS p-value reaches the level DEFAULT_SIGNIFICANCE and so does the
    chance that a correct model puts at least as many of the n points
    beyond the chi^2 0.999 quantile, P(Binom(n, 0.001) >= k).
    """
    kept = [r for r in results if r.reliable and r.dof == dof]
    n_excluded = len(results) - len(kept)
    if not kept:
        raise ValueError("no reliable points to validate")
    rss = np.array([r.rss_rescaled for r in kept])
    d, p = ks_test(rss, dof)
    n_tail = int(np.sum(rss > chi2_quantile(TAIL_QUANTILE, dof)))
    tail_p = _binom_tail(n_tail, len(kept), 1.0 - TAIL_QUANTILE)
    passed = p >= DEFAULT_SIGNIFICANCE and tail_p >= DEFAULT_SIGNIFICANCE
    return ValidationReport(
        rss=rss, dof=dof, ks_statistic=d, p_value=p, tail_fraction=n_tail / len(kept),
        passed=passed, n_tested=len(kept), n_excluded=n_excluded,
    )
