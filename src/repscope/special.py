"""Distribution tail probabilities for regression inference.

Regularized incomplete beta and gamma functions evaluated by power series
and continued fractions, each in the regime where its terms stay positive
or its convergents settle fast. Both tails share two evaluators: ``_series``
sums terms that each multiply the last by a ratio, and ``_lentz`` runs the
modified Lentz iteration (Lentz 1976, Appl. Opt. 15:668; Thompson and
Barnett 1986, J. Comput. Phys. 64:490). The gamma tail's growing
denominators stay running sums (``accumulate``), not ``a + k`` or
``b + 2 k``, which round differently: the reports print every bit of a tail.
Log-space prefactors are assembled from Stirling-series differences so that
huge degrees of freedom (up to 1e6) keep better than 1e-10 relative accuracy.
Quantiles come from root finding on the tails, by a port of scipy's C
``brentq`` solver (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) that finds the same roots bit for bit without
loading ``scipy.optimize``.
"""

from __future__ import annotations

import math
from itertools import accumulate, count, islice, repeat

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 200000
_LN_2PI = math.log(2.0 * math.pi)

# Stirling tail ln Gamma(z) - [(z-1/2) ln z - z + ln(2 pi)/2], coefficients of
# z^-1, z^-3, ... ; accurate past 1e-16 for z >= 10
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)


def _stirling_tail(z: float) -> float:
    zz = 1.0 / (z * z)
    total = 0.0
    power = 1.0 / z
    for coef in _STIRLING:
        total += coef * power
        power *= zz
    return total


def _ln1p_minus_x(u: float) -> float:
    """log1p(u) - u without cancellation for small u."""
    if abs(u) > 0.3:
        return math.log1p(u) - u
    total = 0.0
    term = u
    k = 1
    while True:
        k += 1
        term *= -u
        contrib = term / k
        total += contrib
        if abs(contrib) < _EPS * max(abs(total), _TINY) or k > 200:
            return total


def _lgamma_diff(z: float, a: float) -> float:
    """lgamma(z + a) - lgamma(z) for z >= 10, full relative precision."""
    return (
        (z - 0.5) * math.log1p(a / z)
        + a * (math.log(z + a) - 1.0)
        + _stirling_tail(z + a)
        - _stirling_tail(z)
    )


def _ln_inv_beta(a: float, b: float) -> float:
    """ln(1 / B(a, b)) = lgamma(a+b) - lgamma(a) - lgamma(b)."""
    lo, hi = (a, b) if a <= b else (b, a)
    if hi >= 10.0:
        return _lgamma_diff(hi, lo) - math.lgamma(lo)
    return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)


def _beta_oriented(a: float, b: float, x: float, ln_x: float, ln_xc: float) -> float:
    """I_x(a, b) assuming x is on the small-tail side: x <= (a+1)/(a+b+2).

    ln_x and ln_xc are ln(x) and ln(1-x) supplied by the caller, which can
    often compute them with full relative precision.
    """
    if x == 0.0:
        return 0.0
    ln_front = _ln_inv_beta(a, b) + a * ln_x + b * ln_xc
    if b * x <= 2.0 and x <= 0.95:
        # hypergeometric series; all terms positive, no cancellation
        ratios = (x * (a + b + k - 1.0) / (a + k) for k in count(1))
        total = _series(1.0, ratios, "incomplete beta series", a=a, b=b, x=x)
        return math.exp(ln_front) * total / a
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    d = 1.0 - qab * x / qap
    # each m's even and odd term; convergence is checked after the odd one
    steps = (((m * (b - m) * x / ((qam + 2 * m) * (a + 2 * m)), 1.0),
              (-(a + m) * (qab + m) * x / ((a + 2 * m) * (qap + 2 * m)), 1.0)) for m in count(1))
    h = _lentz(1.0, 1.0 / (_TINY if abs(d) < _TINY else d), steps,
               "incomplete beta continued fraction", a=a, b=b, x=x)
    return math.exp(ln_front) * h / a


def _ln_gamma_front(a: float, x: float) -> float:
    """ln( x^a e^-x / Gamma(a) ) without large-argument cancellation."""
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    u = (x - a) / a
    return a * _ln1p_minus_x(u) + 0.5 * math.log(a) - 0.5 * _LN_2PI - _stirling_tail(a)


def _series(term: float, ratios, name: str, /, **args) -> float:
    """term + term*r1 + term*r1*r2 + ..., to the first term too small to count."""
    total = term
    for ratio in islice(ratios, _MAX_ITER):
        term *= ratio
        total += term
        if term < total * _EPS:
            return total
    raise _unconverged(name, args)


def _lentz(c: float, d: float, steps, name: str, /, **args) -> float:
    """The continued fraction from its first ``c`` and inverted denominator
    ``d``; each item of ``steps`` holds the (a, b) terms of one check."""
    h = d
    for step in islice(steps, _MAX_ITER):
        for a, b in step:
            d = b + a * d
            c = b + a / c
            d = 1.0 / (_TINY if abs(d) < _TINY else d)
            c = _TINY if abs(c) < _TINY else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise _unconverged(name, args)


def _unconverged(name: str, args: dict) -> ArithmeticError:
    words = ", ".join(f"{k}={v}" for k, v in args.items())
    return ArithmeticError(f"{name} did not converge ({words})")


def _check_df(df: float) -> None:
    if not 1 <= df < math.inf:  # also refuses NaN
        raise ValueError(f"df must be finite and >= 1, got {df}")


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability 2*(1 - CDF(|t|)) of Student's t.

    Equals the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df + t^2); both tail arguments and their logs are formed
    directly from t and df to preserve relative precision at large df.
    """
    _check_df(df)
    t = float(t)
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    if math.isinf(t):
        return 0.0
    t2 = t * t
    if t2 == 0.0:  # also below |t| of about 1.5e-162, where the tail is 1.0 in doubles
        return 1.0
    denom = df + t2
    x = df / denom
    z = t2 / denom
    a = 0.5 * df
    b = 0.5
    ln_x = -math.log1p(t2 / df)
    ln_z = math.log(t2) - math.log(denom)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_oriented(b, a, z, ln_z, ln_x)
    return _beta_oriented(a, b, x, ln_x, ln_z)


def chi2_sf(x: float, df: float) -> float:
    """Upper tail P(X >= x) of the chi-square distribution: the regularized
    upper incomplete gamma Q(a, u) = Gamma(a, u) / Gamma(a) at a = df/2,
    u = x/2."""
    _check_df(df)
    if not x >= 0:  # also refuses NaN
        raise ValueError(f"x must be non-negative, got {x}")
    a, u = 0.5 * df, 0.5 * x
    if u == 0.0:
        return 1.0
    if math.isinf(u):
        return 0.0
    if u < a + 1.0:
        ratios = (u / denom for denom in accumulate(repeat(1.0), initial=a + 1.0))
        total = _series(1.0 / a, ratios, "incomplete gamma series", a=a, x=u)
        return 1.0 - total * math.exp(_ln_gamma_front(a, u))
    b = u + 1.0 - a
    bs = accumulate(repeat(2.0), initial=b + 2.0)
    steps = (((-i * (i - a), bi),) for i, bi in zip(count(1), bs))
    h = _lentz(1.0 / _TINY, 1.0 / b if abs(b) > _TINY else 1.0 / _TINY, steps,
               "incomplete gamma continued fraction", a=a, x=u)
    return h * math.exp(_ln_gamma_front(a, u))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of ``f`` in [xa, xb], step for step as scipy's C ``brentq``
    (``scipy/optimize/Zeros/brentq.c``), so it returns the same double."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ArithmeticError(f"root finder did not converge in {maxiter} iterations")


def t_critical(confidence_level: float, df: float) -> float:
    """Positive t with two-sided tail mass 1 - confidence_level."""
    if not 0.0 < confidence_level < 1.0:
        raise ValueError(f"confidence_level must be in (0, 1), got {confidence_level}")
    alpha = 1.0 - confidence_level
    hi = 1.0
    while t_two_sided_p(hi, df) > alpha:
        hi *= 4.0
        if hi > 1e300:
            raise ArithmeticError("t quantile bracket expansion failed")
    return _brentq(lambda v: t_two_sided_p(v, df) - alpha, 0.0, hi, xtol=1e-12, rtol=1e-14)
