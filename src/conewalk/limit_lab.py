"""Statistics engine: normalized limit statistics, reference laws,
empirical distances and convergence-rate fits.

The four statistic kinds and their normal references:

* CLT1  sqrt(d p) / (n sigma2 sqrt(2)) * (||S_n||^2 - n sigma2) -> N(0, 1)
* CLT2  (||S_n||^2 - n sigma2) / sqrt(n)                      -> N(0, m4 - sigma2^2)
* CLT3  sqrt(p) / n * (phi(S_n)^2 - n sigma2)                 -> N(0, T2(sigma2))
* CLT4  (phi(S_n)^2 - n sigma2) / sqrt(n)                     -> N(0, cov of vec(s^2))

CLT1/CLT2 are scalar (q = 1); CLT3/CLT4 produce samples in the hermitian
coordinates of :mod:`cone_linalg`.  For q = 1 the CLT4 transform agrees
with CLT2 exactly.  A q = 1 walk in C^p is the real walk in R^(2p), so
the q = 1 group references take the real dimension m = d p (d = 1 over R,
2 over C).

The CLT1 limit N(0, 1) needs p -> infinity with n >> p^3.  At fixed p and
n -> infinity the statistic tends to the standardized chi-square(m) law
(m ||S_n||^2 / (n sigma2) -> chi-square_m), whose sup-distance from
N(0, 1) is D_m ~ 1 / (3 sqrt(pi m)); see :func:`chi2_normal_gap`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, ndtr

from . import cone_linalg as cl
from .errors import DegenerateDataError, UnsupportedFieldError
from .radial_laws import MomentData

CLT_KINDS = ("CLT1", "CLT2", "CLT3", "CLT4")


def chi2_cdf(p: int, x) -> np.ndarray | float:
    """Distribution function of chi-square with p degrees of freedom."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    x = np.asarray(x, dtype=np.float64)
    out = gammainc(p / 2.0, np.maximum(x, 0.0) / 2.0)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x, sd: float = 1.0) -> np.ndarray | float:
    """The N(0, sd^2) distribution function at x."""
    out = ndtr(np.asarray(x, dtype=np.float64) / sd)
    return float(out) if out.ndim == 0 else out


def chi2_normal_gap(p: int) -> float:
    """D_p = sup_x |chi2_cdf(p, p + sqrt(2p) x) - Phi(x)|: the KS distance
    between the standardized chi-square(p) law and N(0, 1).

    Taken on a 4001-point grid over [-12, 12], which agrees with a
    400001-point grid to 1e-5 for p >= 5.  D_p sqrt(p) tends to
    1 / (3 sqrt(pi)) as p grows (the Edgeworth skewness term).
    """
    x = np.linspace(-12.0, 12.0, 4001)
    gap = np.abs(chi2_cdf(p, p + math.sqrt(2.0 * p) * x) - normal_cdf(x))
    return float(gap.max())


@dataclass(frozen=True)
class Moments:
    """Count, mean and sum of squared deviations M2 of a sample (of each
    row of a 2-d sample).  A block is summarized in two passes, and blocks
    merge pairwise (Chan, Golub & LeVeque 1979), so no variance is ever a
    difference of two large sums.  The first pass's mean is corrected by
    the mean deviation from it, so a constant block has its value as mean
    and M2 = 0 even where the sum of its entries rounds."""

    count: int
    mean: np.ndarray | float
    M2: np.ndarray | float

    @classmethod
    def of(cls, x) -> Moments:
        x = np.asarray(x, dtype=np.float64)
        mean = x.mean(axis=-1)
        mean = mean + (x - np.expand_dims(mean, -1)).mean(axis=-1)
        dev = x - np.expand_dims(mean, -1)
        return cls(x.shape[-1], mean, np.sum(dev * dev, axis=-1))

    def merge(self, other: Moments) -> Moments:
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(count, self.mean + delta * (other.count / count),
                       self.M2 + other.M2 + delta * delta * (self.count * other.count / count))

    @staticmethod
    def pooled(parts) -> Moments:
        """The moments of blocks merged in the given (task) order."""
        return functools.reduce(Moments.merge, parts)

    @property
    def se(self):
        """Standard error of the mean."""
        return np.sqrt(self.M2 / self.count) / np.sqrt(self.count)


def ks_distance(sample: np.ndarray, cdf) -> float:
    """Exact sup-distance between the empirical CDF of the sample and cdf."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    if x.size == 0:
        raise ValueError("empty sample")
    n = x.size
    f = np.asarray(cdf(x), dtype=np.float64)
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def ks_2samp(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample KS distance and asymptotic p-value."""
    from scipy.stats import ks_2samp as _ks

    res = _ks(np.asarray(x), np.asarray(y), method="asymp")
    return float(res.statistic), float(res.pvalue)


def normalize_clt(kind: str, raw: np.ndarray, n: int, p_or_mu: float,
                  md: MomentData) -> np.ndarray:
    """Apply the statistic normalization exactly once.

    raw is a vector of ||S_n||^2 values (scalar kinds / q = 1) or a stack
    of phi(S_n)^2 matrices; matrix kinds return vectorized coordinates.
    """
    if kind not in CLT_KINDS:
        raise ValueError(f"unknown statistic kind {kind!r}")
    raw = np.asarray(raw)
    scalar_input = raw.ndim <= 1
    if kind in ("CLT1", "CLT2") and not scalar_input:
        raise ValueError(f"{kind} expects scalar ||S||^2 samples (q = 1)")
    if kind == "CLT3" and scalar_input and md.q != 1:
        raise ValueError("CLT3 expects matrix samples for q > 1")
    s2 = md.m2  # q = 1 scalar second moment
    if scalar_input:
        centered = raw.astype(np.float64) - n * s2
        if kind == "CLT1":
            return np.sqrt(cl.field_dim(md.field) * p_or_mu) / (n * s2 * math.sqrt(2.0)) * centered
        if kind == "CLT3":
            return np.sqrt(p_or_mu) / n * centered
        return centered / math.sqrt(n)
    if raw.shape[-1] != md.q or raw.shape[-2] != md.q:
        raise ValueError("sample shape does not match the law dimension")
    diff = raw - n * np.asarray(md.sigma2)
    if kind == "CLT3":
        scaled = np.sqrt(p_or_mu) / n * diff
    else:  # CLT4: CLT1 and CLT2 refused matrix samples above
        scaled = diff / math.sqrt(n)
    return cl.vectorize_herm(scaled, md.field)


def t_squared_limit(sigma2: np.ndarray, field: str = cl.REAL) -> np.ndarray:
    """Limit covariance of the Wishart-route statistic, in vec coordinates.

    Entrywise (T2)_{(i,j),(k,l)} = s_{ik} s_{jl} + s_{il} s_{jk} with
    s = sigma2, mapped to the orthonormal hermitian basis; derived for the
    real field only, other fields are refused.
    """
    if field != cl.REAL:
        raise UnsupportedFieldError("T^2 covariance is implemented for the real field only")
    s = np.asarray(sigma2, dtype=np.float64)
    if s.ndim == 0:
        s = s.reshape(1, 1)
    q = s.shape[0]
    basis = cl.herm_basis(q, cl.REAL)
    # sum_{ijkl} Ba_ij Bb_kl (s_ik s_jl + s_il s_jk) = 2 tr(Ba s Bb s)
    out = 2.0 * np.einsum("aij,jk,bkl,li->ab", basis, s, basis, s)
    return 0.5 * (out + out.T)


def moment_identity_rhs(n: int, p: float, md: MomentData) -> float:
    """Exact second moment of ||S_n||^2 - n sigma2 for q = 1 group walks in
    F^p: n (m4 - sigma2^2) + 2 n (n - 1) sigma2^2 / m, with m = d p."""
    if md.q != 1:
        raise ValueError("the moment identity is a q = 1 statement")
    s4 = md.sigma4
    return n * (md.m4 - s4) + 2.0 * (n * (n - 1.0) / (cl.field_dim(md.field) * p)) * s4


def empirical_cov(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and unbiased covariance of row-stacked samples."""
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if x.shape[0] < 2:
        raise ValueError("need at least two samples")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (x.shape[0] - 1)
    return mean, 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class MardiaResult:
    n: int
    dim: int
    skew_stat: float
    kurt_stat: float
    skew_pvalue: float
    kurt_pvalue: float
    skew_df: int


def mardia_tests(samples: np.ndarray) -> MardiaResult:
    """Mardia multivariate skewness/kurtosis statistics with asymptotic
    reference p-values.

    The skewness statistic b1 is computed through the standardized third
    moment tensor (identical to the pairwise definition, linear cost).
    """
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, dim = x.shape
    if n <= 10 * dim * dim:
        raise ValueError(f"need more than 10*dim^2 = {10 * dim * dim} samples, got {n}")
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / n
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError("singular empirical covariance") from exc
    from scipy.linalg import solve_triangular

    z = solve_triangular(chol, xc.T, lower=True).T
    third = np.einsum("na,nb,nc->abc", z, z, z) / n
    b1 = float(np.sum(third * third))
    skew_stat = n * b1 / 6.0
    skew_df = dim * (dim + 1) * (dim + 2) // 6
    skew_p = float(gammaincc(skew_df / 2.0, skew_stat / 2.0))
    r2 = np.sum(z * z, axis=1)
    b2 = float(np.mean(r2 * r2))
    kurt_sd = math.sqrt(8.0 * dim * (dim + 2) / n)
    zscore = (b2 - dim * (dim + 2)) / kurt_sd
    kurt_p = float(2.0 * ndtr(-abs(zscore)))
    return MardiaResult(n=n, dim=dim, skew_stat=skew_stat, kurt_stat=b2,
                        skew_pvalue=skew_p, kurt_pvalue=kurt_p, skew_df=skew_df)


@dataclass(frozen=True)
class RateFit:
    """Log-log rate fit of distance-versus-n points with noise-floor flags."""

    ns: tuple[int, ...]
    distances: tuple[float, ...]
    included: tuple[bool, ...]
    noise_floor: float
    slope: float | None
    slope_se: float | None


def fit_loglog(ns, distances, noise_floor: float) -> RateFit:
    """Least-squares slope of log(distance) against log(n), excluding
    points at or below the Monte Carlo noise floor."""
    ns = tuple(int(n) for n in ns)
    distances = tuple(float(d) for d in distances)
    if len(ns) < 4:
        raise ValueError("rate fits need at least 4 grid points")
    if any(d <= 0 for d in distances):
        raise ValueError("distances must be positive")
    included = tuple(d >= noise_floor for d in distances)
    xs = np.log([n for n, keep in zip(ns, included) if keep])
    ys = np.log([d for d, keep in zip(distances, included) if keep])
    slope = slope_se = None
    if xs.size >= 2:
        xbar = xs.mean()
        sxx = float(np.sum((xs - xbar) ** 2))
        slope = float(np.sum((xs - xbar) * (ys - ys.mean())) / sxx)
        if xs.size > 2:
            resid = ys - (ys.mean() + slope * (xs - xbar))
            slope_se = float(math.sqrt(np.sum(resid**2) / (xs.size - 2) / sxx))
        else:
            slope_se = float("nan")
    return RateFit(ns=ns, distances=distances, included=included,
                   noise_floor=noise_floor, slope=slope, slope_se=slope_se)
