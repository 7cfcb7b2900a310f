"""Bivariate copula families: CDF, density, sampling, tau maps and fitting.

Four families are supported: Gaussian and Student-t (elliptical,
parametrized by a correlation ``rho``), Clayton (``theta > 0``) and Gumbel
(``theta >= 1``). Each family exposes Kendall's tau as a closed-form,
strictly increasing function of its parameter, so one-dimensional fitting
works on the tau scale with plain bracketing.

The module also houses rank-based pseudo-observations, AIC model selection
by pseudo-likelihood, empirical margins and the plug-in copula that combines
empirical margins with a fitted parameter into an evaluable joint CDF on
return space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize, special, stats

from .errors import FitFailure, InsufficientData, InvalidParameter

FAMILIES = ("gaussian", "student_t", "clayton", "gumbel")

_TAU_EPS = 1e-4  # smallest |tau| used when bracketing fits


@dataclass(frozen=True)
class CopulaModel:
    """A copula family plus its dependence parameter.

    ``param`` is the correlation for the elliptical families and the
    generator parameter for the Archimedean ones. ``df`` is the Student-t
    degrees of freedom (integer >= 3) and ignored elsewhere.
    """

    family: str
    param: float
    df: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        p = float(self.param)
        if self.family in ("gaussian", "student_t"):
            if not -1.0 < p < 1.0:
                raise InvalidParameter(f"{self.family} correlation must lie in (-1, 1), got {p}")
        elif self.family == "clayton":
            if not p > 0:
                raise InvalidParameter(f"clayton theta must be positive, got {p}")
        elif self.family == "gumbel":
            if not p >= 1.0:
                raise InvalidParameter(f"gumbel theta must be >= 1, got {p}")
        if self.family == "student_t":
            if self.df is None or int(self.df) < 3:
                raise InvalidParameter("student_t needs integer df >= 3")
            object.__setattr__(self, "df", int(self.df))
        object.__setattr__(self, "param", p)


def tau_of(model: CopulaModel) -> float:
    """Kendall's tau implied by the model parameter.

    Elliptical: ``(2/pi) * arcsin(rho)``. Clayton: ``theta/(theta+2)``.
    Gumbel: ``1 - 1/theta``. The Archimedean values are the closed forms of
    the generator integral ``1 + 4*int phi/phi'``.
    """
    p = model.param
    if model.family in ("gaussian", "student_t"):
        return float(2.0 / math.pi * math.asin(p))
    if model.family == "clayton":
        return float(p / (p + 2.0))
    return float(1.0 - 1.0 / p)


def param_of_tau(family: str, tau: float, df: int | None = None) -> CopulaModel:
    """Exact inverse of :func:`tau_of` within each family.

    Raises :class:`InvalidParameter` when ``tau`` is outside the family's
    attainable range (Clayton and Gumbel cover positive dependence only).
    """
    if family in ("gaussian", "student_t"):
        if not -1.0 < tau < 1.0:
            raise InvalidParameter(f"elliptical tau must lie in (-1, 1), got {tau}")
        return CopulaModel(family, math.sin(math.pi * tau / 2.0), df=df)
    if family == "clayton":
        if not 0.0 < tau < 1.0:
            raise InvalidParameter(f"clayton tau must lie in (0, 1), got {tau}")
        return CopulaModel(family, 2.0 * tau / (1.0 - tau))
    if family == "gumbel":
        if not 0.0 <= tau < 1.0:
            raise InvalidParameter(f"gumbel tau must lie in [0, 1), got {tau}")
        return CopulaModel(family, 1.0 / (1.0 - tau))
    raise InvalidParameter(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# CDFs


def _bvn_cdf(h, k, rho: float) -> np.ndarray:
    """Bivariate standard normal CDF via Owen's T function."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if abs(rho) < 1e-14:
        return special.ndtr(h) * special.ndtr(k)
    r = math.sqrt(1.0 - rho * rho)
    eps = 1e-300
    hh = np.where(np.abs(h) < eps, eps, h)
    kk = np.where(np.abs(k) < eps, eps, k)
    with np.errstate(invalid="ignore", divide="ignore"):
        ah = (kk - rho * hh) / (hh * r)
        ak = (hh - rho * kk) / (kk * r)
        t1 = special.owens_t(hh, ah)
        t2 = special.owens_t(kk, ak)
    # infinite arguments contribute no Owen term
    t1 = np.where(np.isfinite(h), t1, 0.0)
    t2 = np.where(np.isfinite(k), t2, 0.0)
    hk = h * k
    adj = np.where((hk > 0) | ((hk == 0) & (h + k >= 0)), 0.0, 0.5)
    out = 0.5 * (special.ndtr(h) + special.ndtr(k)) - t1 - t2 - adj
    return np.clip(out, 0.0, 1.0)


def cdf(model: CopulaModel, u, v) -> np.ndarray:
    """Copula CDF C(u, v), vectorized, grounded at the boundaries."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    if not ((u >= 0).all() and (u <= 1).all() and (v >= 0).all() and (v <= 1).all()):  # nan fails them
        raise InvalidParameter("copula arguments must lie in [0, 1]")
    out = np.zeros(u.shape, dtype=float)
    interior = (u > 0) & (v > 0)
    # C is 1-Lipschitz in each argument, so clipping costs at most 1e-15
    ui = np.clip(np.where(interior, u, 0.5), 1e-15, 1.0 - 1e-15)
    vi = np.clip(np.where(interior, v, 0.5), 1e-15, 1.0 - 1e-15)
    if model.family == "gaussian":
        val = _bvn_cdf(special.ndtri(ui), special.ndtri(vi), model.param)
    elif model.family == "student_t":
        val = _student_t_cdf(ui, vi, model.param, model.df)
    elif model.family == "clayton":
        th = model.param
        with np.errstate(over="ignore"):
            val = (ui**-th + vi**-th - 1.0) ** (-1.0 / th)
        val = np.where(np.isfinite(val), val, 0.0)
    else:  # gumbel
        th = model.param
        lu = -np.log(ui)
        lv = -np.log(vi)
        val = np.exp(-((lu**th + lv**th) ** (1.0 / th)))
    out[interior] = val[interior]
    # exact upper boundaries: C(u, 1) = u, C(1, v) = v
    out = np.where(u >= 1.0, v, out)
    out = np.where(v >= 1.0, np.where(u >= 1.0, 1.0, u), out)
    out = np.where((u <= 0.0) | (v <= 0.0), 0.0, out)
    return out if out.ndim else float(out)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(160)
_GL_P = 0.5 * (_GL_NODES + 1.0)  # nodes mapped onto (0, 1)
_GL_W = 0.5 * _GL_WEIGHTS


def _student_t_cdf(u, v, rho: float, df: int) -> np.ndarray:
    """Bivariate t CDF as a deterministic scale mixture of normal CDFs.

    With W ~ chi2(df)/df, (T1, T2) = (Z1, Z2)/sqrt(W), so
    P(T1<=x, T2<=y) = E[Phi2(x*sqrt(W), y*sqrt(W); rho)]; the expectation is
    taken by Gauss-Legendre quadrature in the probability scale of W, which
    keeps every call reproducible (no Monte Carlo integration).
    """
    x = special.stdtrit(df, u)
    y = special.stdtrit(df, v)
    # quantiles of the mixing variable; 2 * gammaincinv(df/2, p) is chi2(df).ppf(p)
    w_quant = 2.0 * special.gammaincinv(df / 2.0, _GL_P) / df
    sq = np.sqrt(w_quant)
    xs = x[..., None] * sq
    ys = y[..., None] * sq
    vals = _bvn_cdf(xs, ys, rho) @ _GL_W
    return vals


# ---------------------------------------------------------------------------
# densities


def _coordinate_terms(family: str, df: int | None, p: np.ndarray) -> tuple:
    """The parameter-free terms of the log density that depend on one coordinate.

    Each term is elementwise in ``p``, so on pseudo-observations it can be
    evaluated once per distinct value and gathered per point.
    """
    if family == "gaussian":
        return (special.ndtri(p),)
    if family == "student_t":
        x = special.stdtrit(df, p)
        return x, np.log1p(x * x / df)
    if family == "clayton":
        return (np.log(p),)
    # gumbel
    lp = -np.log(p)
    return lp, np.log(lp)


def _features(family: str, df: int | None, tu: tuple, tv: tuple) -> tuple:
    """The parameter-free per-point terms of the family's log density.

    ``tu`` and ``tv`` are the :func:`_coordinate_terms` of u and v. Fitting
    evaluates the density at many parameters on one dataset, so the quantile
    transforms and logarithms are computed here once.
    """
    if family == "gaussian":
        (x,), (y,) = tu, tv
        return x * x + y * y, x * y
    if family == "student_t":
        (x, log_mx), (y, log_my) = tu, tv
        # minus the two marginal t log densities, up to the constant
        t_margins = (df + 1.0) / 2.0 * (log_mx + log_my)
        return x * x + y * y, x * y, t_margins
    if family == "clayton":
        return tu[0], tv[0]
    # gumbel
    (lu, log_lu), (lv, log_lv) = tu, tv
    return lu + lv, log_lu, log_lv


def _gathered_features(family: str, df: int | None, vals: np.ndarray, iu: np.ndarray,
                       iv: np.ndarray) -> tuple:
    """:func:`_features` at ``u = vals[iu]``, ``v = vals[iv]``, transforming each value once.

    Pseudo-observations of both columns share the values ``rank/(n+1)``, so
    the quantile transform runs over at most n values instead of 2n. Every
    step is elementwise, so the result equals the per-point one bit for bit.
    """
    terms = _coordinate_terms(family, df, vals)
    return _features(family, df, tuple(t[iu] for t in terms), tuple(t[iv] for t in terms))


def _log_density(family: str, param: float, df: int | None, features: tuple) -> np.ndarray:
    """Log copula density at ``param`` from the terms of :func:`_features`."""
    if family in ("gaussian", "student_t"):
        rho = param
        om = 1.0 - rho * rho
        sq_sum, xy = features[:2]
        if family == "gaussian":
            return -0.5 * math.log(om) - (rho * rho * sq_sum - 2.0 * rho * xy) / (2.0 * om)
        q = (sq_sum - 2.0 * rho * xy) / (om * df)
        const = (
            special.gammaln((df + 2.0) / 2.0)
            + special.gammaln(df / 2.0)
            - 2.0 * special.gammaln((df + 1.0) / 2.0)
            - 0.5 * math.log(om)
        )
        t_margins = features[2]
        return const - (df + 2.0) / 2.0 * np.log1p(q) + t_margins
    th = param
    if family == "clayton":
        log_u, log_v = features
        # log(u^-th + v^-th - 1) in log space; safe for large th
        big = np.logaddexp(-th * log_u, -th * log_v)
        log_s = big + np.log1p(-np.exp(-big))
        return math.log1p(th) - (th + 1.0) * (log_u + log_v) - (2.0 + 1.0 / th) * log_s
    # gumbel, with lu = -log(u), lv = -log(v)
    lu_plus_lv, log_lu, log_lv = features
    log_w = np.logaddexp(th * log_lu, th * log_lv)
    a = np.exp(log_w / th)
    return (
        -a
        + lu_plus_lv
        + (th - 1.0) * (log_lu + log_lv)
        + (1.0 / th - 2.0) * log_w
        + np.log(a + th - 1.0)
    )


def log_pdf(model: CopulaModel, u, v) -> np.ndarray:
    """Log copula density, vectorized over points strictly inside (0,1)^2."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not ((u > 0).all() and (u < 1).all() and (v > 0).all() and (v < 1).all()):  # nan fails them
        raise InvalidParameter("density requires arguments strictly inside (0, 1)")
    tu = _coordinate_terms(model.family, model.df, u)
    tv = _coordinate_terms(model.family, model.df, v)
    return _log_density(model.family, model.param, model.df, _features(model.family, model.df, tu, tv))


# ---------------------------------------------------------------------------
# sampling


def _positive_stable(alpha: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Positive alpha-stable draws with Laplace transform exp(-t**alpha), written over ``w``.

    ``v`` holds uniform draws on (0, pi) and ``w`` standard exponentials;
    the draws are (sin(alpha v) / sin(v)**(1/alpha)) * (sin((1-alpha) v) / w)**((1-alpha)/alpha),
    evaluated in ``v``, ``w`` and one more array of their shape.
    """
    right = np.multiply(v, 1.0 - alpha)
    np.sin(right, out=right)
    right /= w
    right **= (1.0 - alpha) / alpha
    left = np.multiply(v, alpha, out=w)
    np.sin(left, out=left)
    np.sin(v, out=v)
    v **= 1.0 / alpha
    left /= v
    left *= right
    return left


def _rows(rngs: Sequence[np.random.Generator], shape: tuple, draw, *args) -> np.ndarray:
    """A new ``(len(rngs), *shape)`` array whose row r is ``draw(rngs[r], *args, out=row)``."""
    out = np.empty((len(rngs), *shape))
    for row, rng in zip(out, rngs):
        draw(rng, *args, out=row)
    return out


def _divide_pairs(e: np.ndarray, frailty: np.ndarray) -> None:
    """``e[..., j] /= frailty`` for both coordinates, a column at a time: a broadcast divide would buffer."""
    for col in (e[..., 0], e[..., 1]):
        col /= frailty


def _sample_block(model: CopulaModel, n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Copula draws (U, V) as a ``(len(rngs), n, 2)`` array; row r draws only from ``rngs[r]``.

    Row r is ``sample_uniform(model, n, rngs[r])`` bit for bit: each
    generator makes that function's draws in its order, written straight
    into the block's arrays, and every transform then runs once over the
    whole block, in the array of the pair draws. Where a family draws a
    second variable, the one drawn first is transformed over the block
    before the second is allocated, so the block holds at most 1.5 times its
    output. Draws that a numpy method makes through another are taken at the
    source: ``chisquare(df)`` is ``2 * standard_gamma(df / 2)``,
    ``gamma(a, 1.0)`` is ``standard_gamma(a)`` and ``uniform(0, pi)`` is
    ``pi * random()``, each equal bit for bit.
    """
    gen = np.random.Generator
    if model.family in ("gaussian", "student_t"):
        rho = model.param
        g = _rows(rngs, (n, 2), gen.standard_normal)
        z2 = g[..., 1]
        z2 *= math.sqrt(1.0 - rho * rho)
        z2 += rho * g[..., 0]
        if model.family == "gaussian":
            return special.ndtr(g, out=g)
        scale = _rows(rngs, (n,), gen.standard_gamma, model.df / 2.0)
        scale *= 2.0  # chi-square draws
        scale /= model.df
        np.sqrt(scale, out=scale)
        _divide_pairs(g, scale)
        return special.stdtr(model.df, g, out=g)
    th = model.param
    if model.family == "clayton":
        frailty = _rows(rngs, (n,), gen.standard_gamma, 1.0 / th)
        e = _rows(rngs, (n, 2), gen.standard_exponential)
        _divide_pairs(e, frailty)
        e += 1.0
        e **= -1.0 / th
        return e
    # gumbel: positive-stable frailty
    if th == 1.0:
        return _rows(rngs, (n, 2), gen.random)
    # at high theta a frailty can overflow, or its sines vanish to 0 * inf; the
    # draws then hold 0, 1 or nan, which the tick series' own checks reject
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v = _rows(rngs, (n,), gen.random)
        v *= math.pi
        frailty = _positive_stable(1.0 / th, v, _rows(rngs, (n,), gen.standard_exponential))
        del v  # before the pair draws, so that the block holds at most three arrays of its shape
        e = _rows(rngs, (n, 2), gen.standard_exponential)
        _divide_pairs(e, frailty)
        e **= 1.0 / th
        np.negative(e, out=e)
        return np.exp(e, out=e)


def sample_uniform(model: CopulaModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws (U, V) from the copula as an (n, 2) array: a one-row :func:`_sample_block`."""
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    return _sample_block(model, n, [rng])[0]


# ---------------------------------------------------------------------------
# pseudo-observations and fitting


def pseudo_observations(x, y) -> np.ndarray:
    """Rank-transform two samples into (0,1)^2 using rank/(n+1) scaling."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidParameter("x and y must be 1-d arrays of equal length")
    n = x.size
    u = stats.rankdata(x, method="average") / (n + 1.0)
    v = stats.rankdata(y, method="average") / (n + 1.0)
    return np.column_stack([u, v])


@dataclass(frozen=True)
class CopulaFit:
    """One family's pseudo-likelihood fit."""

    model: CopulaModel
    loglik: float
    aic: float
    n_params: int
    boundary: bool


def _tau_bracket(family: str) -> tuple[float, float]:
    if family in ("gaussian", "student_t"):
        return (-1.0 + 1e-3, 1.0 - 1e-3)
    return (_TAU_EPS, 1.0 - 1e-3)


def _fit_family_tau(features: tuple, family: str, df: int | None) -> tuple[float, float, bool]:
    """Maximize the copula log-likelihood over tau; returns (tau, loglik, boundary).

    ``features`` are the dataset's parameter-free terms (:func:`_features`);
    each evaluation sums the family's log density at the parameter of ``tau``.
    """
    lo, hi = _tau_bracket(family)

    def neg_loglik(tau: float) -> float:
        param = param_of_tau(family, tau, df).param
        val = -float(np.sum(_log_density(family, param, df, features)))
        return val if np.isfinite(val) else np.inf

    res = optimize.minimize_scalar(
        neg_loglik, bounds=(lo, hi), method="bounded", options={"xatol": 1e-6}
    )
    if not np.isfinite(res.fun):
        raise FitFailure(family, "log-likelihood not finite over the bracket")
    tau = float(res.x)
    boundary = (tau - lo) < 1e-4 * (hi - lo) or (hi - tau) < 1e-4 * (hi - lo)
    return tau, -float(res.fun), boundary


def fit_aic(
    uv: np.ndarray,
    families: Sequence[str] = FAMILIES,
    *,
    t_df: int | None = None,
    t_df_grid: Sequence[int] = tuple(range(3, 31)),
) -> list[CopulaFit]:
    """Fit each family by pseudo-likelihood and rank by AIC (ascending).

    ``uv`` holds pseudo-observations in (0,1)^2, at least 30 of them, and
    neither column may be constant; ``families`` may not repeat a name. The
    Student-t degrees of freedom (integers >= 3) are profiled over
    ``t_df_grid`` unless ``t_df`` pins them, in which case the family counts
    one parameter instead of two. The profile is searched, not swept: a
    bisection over the sorted distinct grid moves right while the next df's
    log-likelihood is strictly higher and left otherwise, fitting each df it
    visits once (at most 10 of the default 28). It returns a local maximum
    of the profile over the grid, which is the full-grid argmax (the
    smallest df on ties) whenever the profile is unimodal; a multimodal
    profile, seen on small or heavily tied samples, can yield another local
    maximum. Families whose optimum sits on the bracket boundary are flagged
    rather than dropped; a family whose likelihood cannot be evaluated
    raises :class:`FitFailure` unless another family succeeds.
    """
    uv = np.asarray(uv, dtype=float)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise InvalidParameter("uv must be an (n, 2) array of pseudo-observations")
    if uv.shape[0] < 30:
        raise InsufficientData(f"need at least 30 pseudo-observations, got {uv.shape[0]}")
    if not ((uv > 0).all() and (uv < 1).all()):  # nan fails both comparisons
        raise InvalidParameter("pseudo-observations must lie strictly inside (0, 1)")
    if (uv == uv[0]).all(axis=0).any():
        raise InsufficientData("a column of pseudo-observations holds a single value; "
                               "its dependence cannot be fitted")
    families = tuple(families)
    for family in families:
        if family not in FAMILIES:
            raise InvalidParameter(f"unknown family {family!r}")
    if len(set(families)) != len(families):
        raise InvalidParameter(f"families must not repeat, got {list(families)}")
    dfs = [t_df] if t_df is not None else list(t_df_grid)
    if not dfs or any(not float(d).is_integer() or d < 3 for d in dfs):
        raise InvalidParameter(f"student_t df must be integers >= 3, got {dfs}")
    t_grid = sorted({int(d) for d in dfs})

    # both columns draw from one value set, so each transform runs once per value
    vals, inv = np.unique(uv.T, return_inverse=True)
    iu, iv = inv.reshape(2, -1)

    def fit(family: str, df: int | None) -> tuple[float, float, bool, int | None]:
        return (*_fit_family_tau(_gathered_features(family, df, vals, iu, iv), family, df), df)

    def profile_t() -> tuple[float, float, bool, int]:
        at = functools.cache(lambda i: fit("student_t", t_grid[i]))  # no df is fitted twice
        lo, hi = 0, len(t_grid) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if at(mid + 1)[1] > at(mid)[1]:
                lo = mid + 1
            else:
                hi = mid
        return at(lo)

    fits: list[CopulaFit] = []
    failures: list[FitFailure] = []
    for family in families:
        k = 2 if family == "student_t" and t_df is None else 1
        try:
            tau, ll, bnd, df = profile_t() if family == "student_t" else fit(family, None)
        except FitFailure as exc:
            failures.append(exc)
            continue
        fits.append(
            CopulaFit(
                model=param_of_tau(family, tau, df=df),
                loglik=ll,
                aic=2.0 * k - 2.0 * ll,
                n_params=k,
                boundary=bnd,
            )
        )
    if not fits:
        raise FitFailure("all", "; ".join(str(f) for f in failures))
    fits.sort(key=lambda f: f.aic)
    return fits


# ---------------------------------------------------------------------------
# empirical margins and the plug-in copula


@dataclass(frozen=True)
class EmpiricalMargin:
    """Right-continuous ECDF scaled by n/(n+1) so values stay inside (0,1)."""

    sorted_sample: np.ndarray

    def __post_init__(self):
        s = np.sort(np.asarray(self.sorted_sample, dtype=float))
        if s.size < 1 or not np.isfinite(s).all():
            raise InvalidParameter("margin sample must be non-empty and finite")
        object.__setattr__(self, "sorted_sample", s)

    def ecdf(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        n = self.sorted_sample.size
        out = np.searchsorted(self.sorted_sample, r, side="right") / (n + 1.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PluginCopula:
    """Fitted copula composed with empirical margins, evaluable on returns."""

    margin1: EmpiricalMargin
    margin2: EmpiricalMargin
    model: CopulaModel

    def evaluate(self, r1, r2) -> np.ndarray:
        """Joint CDF estimate C(F1(r1), F2(r2)) at return-space points."""
        return cdf(self.model, self.margin1.ecdf(r1), self.margin2.ecdf(r2))


def plugin_copula(paired, param: float, family: str, df: int | None = None) -> PluginCopula:
    """Assemble the plug-in copula from paired returns and a fitted parameter.

    The margins are the ECDFs of the two paired return columns; ``param``
    must be admissible for ``family`` (checked by :class:`CopulaModel`).
    """
    rx, ry = paired.returns()
    if rx.size < 1:
        raise InsufficientData("need at least one paired return")
    model = CopulaModel(family, param, df=df)
    return PluginCopula(EmpiricalMargin(rx), EmpiricalMargin(ry), model)
