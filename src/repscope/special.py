"""Distribution tail probabilities for regression inference.

Regularized incomplete beta and gamma functions evaluated by power series
and continued fractions (modified Lentz iteration), each in the regime
where its terms stay positive or its convergents settle fast. Log-space
prefactors are assembled from Stirling-series differences so that huge
degrees of freedom (up to 1e6) keep better than 1e-10 relative accuracy.
Quantiles come from root finding on the tails, by a port of scipy's C
``brentq`` solver (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) that finds the same roots bit for bit without
loading ``scipy.optimize``.
"""

from __future__ import annotations

import math

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
        term = 1.0
        total = 1.0
        k = 0
        while k < _MAX_ITER:
            k += 1
            term *= x * (a + b + k - 1.0) / (a + k)
            total += term
            if term < total * _EPS:
                return math.exp(ln_front) * total / a
        raise ArithmeticError(f"incomplete beta series did not converge (a={a}, b={b}, x={x})")
    return math.exp(ln_front) * _beta_continued_fraction(a, b, x) / a


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + coef / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + coef / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _ln_gamma_front(a: float, x: float) -> float:
    """ln( x^a e^-x / Gamma(a) ) without large-argument cancellation."""
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    u = (x - a) / a
    return a * _ln1p_minus_x(u) + 0.5 * math.log(a) - 0.5 * _LN_2PI - _stirling_tail(a)


def _lower_gamma_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(_ln_gamma_front(a, x))
    raise ArithmeticError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _upper_gamma_continued_fraction(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if abs(b) > _TINY else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(_ln_gamma_front(a, x))
    raise ArithmeticError(
        f"incomplete gamma continued fraction did not converge (a={a}, x={x})"
    )


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability 2*(1 - CDF(|t|)) of Student's t.

    Equals the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df + t^2); both tail arguments and their logs are formed
    directly from t and df to preserve relative precision at large df.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
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
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    a, u = 0.5 * df, 0.5 * x
    if u == 0.0:
        return 1.0
    if math.isinf(u):
        return 0.0
    if u < a + 1.0:
        return 1.0 - _lower_gamma_series(a, u)
    return _upper_gamma_continued_fraction(a, u)


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
