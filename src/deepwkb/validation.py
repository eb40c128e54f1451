"""Statistical test of the WKB hypothesis.

Under the WKB-plus-binomial-noise model the rescaled per-point residual
sum of squares follows chi^2(K - 3).  The pooled sample of RSS values
over reliable collocation points is therefore tested against that law
with a one-sample Kolmogorov-Smirnov test.  In addition the number of
points beyond the chi^2 0.999 quantile is tested against its
Binomial(n, 0.001) law.  Both tests together decide "holds" / "does not
hold".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import bdtrc, gammainc, gammaincinv

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
    significance: float
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
            f"significance: {self.significance:g}",
            f"wkb: {verdict}",
        ]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.lines()) + "\n")


def chi2_cdf(x, k):
    """P(chi^2_k <= x) via the regularized lower incomplete gamma."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi2_cdf requires x >= 0")
    if k < 1:
        raise ValueError("chi2_cdf requires k >= 1")
    out = gammainc(k / 2.0, x / 2.0)
    return float(out) if out.ndim == 0 else out


def chi2_quantile(p, k):
    """Inverse of chi2_cdf through the inverse regularized incomplete gamma."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return float(2.0 * gammaincinv(k / 2.0, p))


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


def validate_wkb(results, dof, significance=DEFAULT_SIGNIFICANCE) -> ValidationReport:
    """Pool rescaled RSS over reliable points and test against chi^2(dof).

    ``dof`` is K - 3 for the K-level ladder.  Points flagged unreliable or
    with a row count different from the ladder's (mismatched dof) are
    excluded.  The hypothesis holds when the pooled KS p-value reaches the
    significance level and so does the chance that a correct model puts
    at least as many of the n points beyond the chi^2 0.999 quantile,
    P(Binom(n, 0.001) >= k).
    """
    kept = [r for r in results if r is not None and r.reliable and r.dof == dof]
    n_excluded = len(results) - len(kept)
    if not kept:
        raise ValueError("no reliable points to validate")
    rss = np.array([r.rss_rescaled for r in kept])
    d, p = ks_test(rss, dof)
    n_tail = int(np.sum(rss > chi2_quantile(TAIL_QUANTILE, dof)))
    tail_p = bdtrc(n_tail - 1, len(kept), 1.0 - TAIL_QUANTILE)  # P(Binom >= n_tail)
    passed = p >= significance and tail_p >= significance
    return ValidationReport(
        rss=rss, dof=dof, ks_statistic=d, p_value=p, tail_fraction=n_tail / len(kept),
        significance=significance, passed=passed,
        n_tested=len(kept), n_excluded=n_excluded,
    )


def export_rss_csv(results, path):
    """(coords..., rss) for heat-map plotting."""
    kept = [r for r in results if r is not None and r.reliable]
    if not kept:
        raise ValueError("no reliable points to export")
    dim = kept[0].point.shape[0]
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i}" for i in range(dim)] + ["rss"]) + "\n")
        for r in kept:
            coords = ",".join(f"{v:.17g}" for v in r.point)
            fh.write(f"{coords},{r.rss_rescaled:.17g}\n")
