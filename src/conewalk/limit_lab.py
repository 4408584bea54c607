"""Statistics engine: normalized limit statistics, reference laws,
empirical distances and convergence-rate fits.

:data:`CLT` holds one record per statistic of the paper's four limit
theorems, with s2 the law's second moment (a matrix at q >= 2):

* CLT1  sqrt(d p) / (n s2 sqrt(2)) * (||S_n||^2 - n s2) -> N(0, 1)
* CLT2  (||S_n||^2 - n s2) / sqrt(n)                      -> N(0, m4 - s2^2)
* CLT3  sqrt(p) / n * (phi(S_n)^2 - n s2)                 -> N(0, T2(s2))
* CLT4  (phi(S_n)^2 - n s2) / sqrt(n)                     -> N(0, cov of vec(s^2))

CLT1/CLT2 are scalar (q = 1); CLT3/CLT4 give hermitian coordinates
(:mod:`cone_linalg`) at q >= 2 and are held to 2 s2^2 and m4 - s2^2 at
q = 1.  A q = 1 walk in C^p is the real walk in R^(2p), so the q = 1
group references take the real dimension m = d p.  At fixed p the CLT1
statistic tends to the standardized chi-square(m) law, at KS distance
D_m ~ 1 / (3 sqrt(pi m)) from N(0, 1); see :func:`chi2_normal_gap`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import gammainc, gammaincc, ndtr

from . import cone_linalg as cl
from .errors import DegenerateDataError, UnsupportedFieldError
from .radial_laws import MomentData

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


def standardized_chi2_cdf(m: int, z) -> np.ndarray | float:
    """Distribution function of (X - m) / sqrt(2 m), X ~ chi-square(m)."""
    return chi2_cdf(m, m + math.sqrt(2.0 * m) * z)


def chi2_normal_gap(p: int) -> float:
    """D_p = sup_x |standardized_chi2_cdf(p, x) - Phi(x)|: the KS distance
    between the standardized chi-square(p) law and N(0, 1).

    Taken on a 4001-point grid over [-12, 12], which agrees with a
    400001-point grid to 1e-5 for p >= 5.  D_p sqrt(p) tends to
    1 / (3 sqrt(pi)) as p grows (the Edgeworth skewness term).
    """
    x = np.linspace(-12.0, 12.0, 4001)
    gap = np.abs(standardized_chi2_cdf(p, x) - normal_cdf(x))
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


def t_squared_limit(sigma2: np.ndarray, field: str = cl.REAL) -> np.ndarray:
    """Limit covariance of the Wishart-route statistic, in vec coordinates.

    Entrywise (T2)_{(i,j),(k,l)} = s_{ik} s_{jl} + s_{il} s_{jk} with
    s = sigma2, mapped to the orthonormal hermitian basis; derived for the
    real field only, other fields are refused.
    """
    if field != cl.REAL:
        raise UnsupportedFieldError("T^2 covariance is implemented for the real field only")
    s = np.asarray(sigma2, dtype=np.float64)
    q = s.shape[0]
    basis = cl.herm_basis(q, cl.REAL)
    # sum_{ijkl} Ba_ij Bb_kl (s_ik s_jl + s_il s_jk) = 2 tr(Ba s Bb s)
    out = 2.0 * np.einsum("aij,jk,bkl,li->ab", basis, s, basis, s)
    return 0.5 * (out + out.T)


# a q = 1 law whose limit variance m4 - s2^2 is at most this times m4 is
# degenerate: over point masses rounding leaves up to 3e-16 m4 of either sign
_LIMIT_VAR_RTOL = 1e-13


def _fourth_moment_var(md: MomentData) -> float:
    """m4 - s2^2 at q = 1 (CLT2, CLT4), or 0 where rounding cannot tell it from 0."""
    var = md.m4 - md.sigma4
    return var if var > _LIMIT_VAR_RTOL * md.m4 else 0.0


def _real_dim(p, md: MomentData) -> int:
    """m = d p: a q = 1 walk in C^p is the real walk in R^(2p)."""
    return cl.field_dim(md.field) * p


@dataclass(frozen=True)
class Statistic:
    """One limit theorem's statistic: normalize(x, n, index, md) scales the
    centered walk x, scalar or matrix, to a limit N(0, var(md)) at q = 1 or
    N(0, cov(md)) in vec coordinates at q >= 2 (no cov: stated for q = 1
    only); regime(n, index) lists its regime warnings; where given, its law
    at a fixed index p is the standardized chi-square(fixed_index_dof(p, md))."""

    normalize: Callable
    var: Callable
    cov: Callable | None
    regime: Callable
    group_only: bool = False
    real_only: bool = False
    fixed_index_dof: Callable | None = None


# CLT2 is CLT4 at q = 1
_CLT4 = Statistic(
    lambda x, n, index, md: x / math.sqrt(n), _fourth_moment_var,
    lambda md: np.asarray(md.sigma2_image_cov),
    lambda n, index: [f"regime: n^2/index = {n * n / index:.3g} > 0.1; the limit needs "
                      "n^2/index -> 0"] if n * n / index > 0.1 else [])
CLT = {
    "CLT1": Statistic(
        lambda x, n, p, md: np.sqrt(_real_dim(p, md)) / (n * md.m2 * math.sqrt(2.0)) * x,
        lambda md: 1.0, None,
        lambda n, p: [f"regime: n/p^3 = {n / p**3:.3g} is small; the N(0,1) limit needs "
                      "n >> p^3 with p growing"] if n / p**3 < 1.0 else [],
        group_only=True, fixed_index_dof=_real_dim),
    "CLT2": replace(_CLT4, cov=None),
    "CLT3": Statistic(
        lambda x, n, p, md: np.sqrt(p) / n * x,
        lambda md: 2.0 * md.sigma4, lambda md: t_squared_limit(np.asarray(md.sigma2).real),
        lambda n, p: [f"regime: n/p^4 = {n / p**4:.3g} is small; "
                      "the normality claim needs n >> p^4"] if n / p**4 < 1.0 else [],
        group_only=True, real_only=True),
    "CLT4": _CLT4,
}


def normalize_clt(kind: str, raw: np.ndarray, n: int, p_or_mu: float,
                  md: MomentData) -> np.ndarray:
    """Apply the statistic normalization exactly once: raw is ||S_n||^2 at
    q = 1, or a stack of phi(S_n)^2 matrices, returned in vec coordinates."""
    if kind not in CLT:
        raise ValueError(f"unknown statistic kind {kind!r}")
    if raw.shape[1:] != ((md.q, md.q) if md.q > 1 else ()):
        raise ValueError(f"sample shape {raw.shape} does not match the law's q = {md.q}")
    if md.q == 1:
        return CLT[kind].normalize(raw - n * md.m2, n, p_or_mu, md)
    if CLT[kind].cov is None:
        raise ValueError(f"{kind} is a q = 1 statistic")
    scaled = CLT[kind].normalize(raw - n * np.asarray(md.sigma2), n, p_or_mu, md)
    return cl.vectorize_herm(scaled, md.field)


def moment_identity_rhs(n: int, p: float, md: MomentData) -> float:
    """Exact second moment of ||S_n||^2 - n sigma2 for q = 1 group walks in
    F^p: n (m4 - sigma2^2) + 2 n (n - 1) sigma2^2 / m, with m = d p."""
    if md.q != 1:
        raise ValueError("the moment identity is a q = 1 statement")
    s4 = md.sigma4
    return n * (md.m4 - s4) + 2.0 * (n * (n - 1.0) / _real_dim(p, md)) * s4


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
