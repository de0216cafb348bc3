"""The Harrell-Davis quantile estimator.

A sample quantile is one order statistic, or two; when many values sit on
the few plateaus that a stopping rule makes, it jumps from plateau to
plateau as the inputs change.  The Harrell-Davis estimate of the p-quantile
weighs every order statistic x_(i) by the probability that a Beta(p(n+1),
(1-p)(n+1)) variable falls in ((i-1)/n, i/n], which moves smoothly with the
inputs (F. E. Harrell and C. E. Davis, Biometrika 69 (1982) 635-640).
"""

import math

_TINY = 1e-300


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _beta_cdf(a, b, x):
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile of `values`, 0 < p < 1."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total, below = 0.0, 0.0
    for i, x in enumerate(xs, start=1):
        cdf = _beta_cdf(a, b, i / n)
        total += (cdf - below) * x
        below = cdf
    return total
