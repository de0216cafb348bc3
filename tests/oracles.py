"""Independent cross-checks for the tests: double-exponential quadrature of
the integral representations, and exact integer power sums.

Nothing here shares machinery with the series evaluators: no Euler-Maclaurin,
no Bernoulli numbers, no zeta calls.  The quadrature routes go through the
gamma-weighted Laplace integrals, so agreement with the series side is a
genuine two-route check.
"""

import math
from dataclasses import dataclass

from zetasums import DomainError


class QuadratureError(Exception):
    """Quadrature refinement failed to reach its target accuracy."""


_U_SPAN = 6.0  # |u| beyond this the double-exponential weight is ~e^-600
_EPS = math.ulp(1.0)
# roundings of EPS/2 in one node's share of the sum: pi, cosh and four
# products in the weight (7), the logistic pair sig and comp (exp, a sum and
# a quotient, libm within one ulp: 4 each), the product w f and the fsum
_NODE_OPS = 17


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the tanh-sinh integrator.

    upper_cutoff: finite truncation point of the (0, inf) integral; when 0
    (the default) a cutoff is chosen from the integrand's decay rate.
    levels: maximum number of dyadic refinements of the node spacing.
    target_abs: absolute accuracy goal for the integral estimate.
    """

    upper_cutoff: float = 0.0
    levels: int = 10
    target_abs: float = 1e-12

    def __post_init__(self):
        if not (0.0 <= self.upper_cutoff and math.isfinite(self.upper_cutoff)):
            raise DomainError("upper_cutoff must be finite and >= 0")
        if not (1 <= self.levels <= 12):
            raise DomainError("levels must be in 1..12")
        if not (self.target_abs > 0.0 and math.isfinite(self.target_abs)):
            raise DomainError("target_abs must be finite and positive")


def _node(u, cutoff):
    """Map u in (-inf, inf) to x in (0, cutoff) with the tanh-sinh change of
    variables; returns (x, dx/du).  Both tails are evaluated without
    cancellation: the logistic is computed from the side that underflows."""
    g = math.pi * math.sinh(u)  # = 2 * (pi/2) sinh u
    if g >= 0.0:
        eneg = math.exp(-g)
        sig = 1.0 / (1.0 + eneg)
        comp = eneg / (1.0 + eneg)
    else:
        epos = math.exp(g)
        sig = epos / (1.0 + epos)
        comp = 1.0 / (1.0 + epos)
    weight = cutoff * math.pi * math.cosh(u) * sig * comp
    return cutoff * sig, weight


def _tanh_sinh(f, cutoff, levels, target, f_ops):
    """Integrate f over (0, cutoff).  Returns (value, err_estimate); raises
    QuadratureError if successive refinements fail to settle below target.

    err_estimate is the last refinement's change plus the rule's own
    rounding.  The products w f are summed by math.fsum, which rounds once,
    so each is charged _NODE_OPS + f_ops(x) roundings of EPS/2 of its
    magnitude: _NODE_OPS for the weight, the product and the sum, f_ops(x),
    the caller's count, for evaluating f at x.  Rounding in where a node
    lands (x and the exponent pi sinh u) moves the rule, not its sum, and is
    left to the refinement change."""
    terms, charges = [], []

    def add(u):
        x, w = _node(u, cutoff)
        if w > 0.0:
            terms.append(w * f(x))
            charges.append(abs(terms[-1]) * (_NODE_OPS + f_ops(x)))

    h = 1.0
    n_half = int(_U_SPAN)
    for i in range(-n_half, n_half + 1):
        add(float(i))
    prev = math.fsum(terms)
    for level in range(1, levels + 1):
        h *= 0.5
        u = h
        while u < _U_SPAN:
            add(u)
            add(-u)
            u += 2.0 * h
        cur = h * math.fsum(terms)
        change = abs(cur - prev)
        if change <= target and level >= 3:
            return cur, change + 0.5 * _EPS * h * math.fsum(charges)
        prev = cur
    raise QuadratureError(
        f"quadrature did not settle to {target:g} within {levels} refinements"
    )


def _choose_cutoff(s, alpha, target):
    """Smallest power-of-two-ish X with the (X, inf) remainder of
    x^(s-1) e^(-alpha x) / (1 - e^(-x)) certifiably below target."""
    x = max(8.0, 2.0 * (s - 1.0) / alpha)
    for _ in range(80):
        # for x >= 2(s-1)/alpha the factor x^(s-1) e^(-alpha x / 2) decreases
        tail = (
            x ** (s - 1.0)
            * math.exp(-alpha * x)
            * (2.0 / alpha)
            / -math.expm1(-x)
        )
        if tail <= target:
            return x
        x *= 1.5
    raise QuadratureError("could not place the upper cutoff for these parameters")


def _laplace_quad(name, s, s_min, alpha, spec, denom):
    """Gamma(s)^-1 times the integral of x^(s-1) e^(-alpha x) / denom(x) over
    (0, inf), as (value, err_estimate)."""
    if spec is None:
        spec = QuadratureSpec()
    if not isinstance(spec, QuadratureSpec):
        raise DomainError("spec must be a QuadratureSpec")
    if not (math.isfinite(s) and s >= s_min):
        raise DomainError(f"{name} requires s >= {s_min}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError("alpha must be positive")
    gam = math.gamma(s)
    target_integral = spec.target_abs * gam / 10.0
    cutoff = spec.upper_cutoff or _choose_cutoff(s, alpha, target_integral)

    def f(x):
        return x ** (s - 1.0) * math.exp(-alpha * x) / denom(x)

    # pow and exp 2 each, denom at most 3, alpha x, the product and the
    # quotient 1 each, and the final division by Gamma(s) 5 (math.gamma
    # within 2 ulps); exp's rounded argument adds alpha x
    val, err = _tanh_sinh(f, cutoff, spec.levels, target_integral, lambda x: 15.0 + alpha * x)
    return val / gam, (err + target_integral) / gam


def quad_hurwitz(s, alpha, spec=None):
    """Hurwitz zeta via its Laplace integral, independent of the series route.

    Valid for s >= 2.5 (below that the x -> 0 endpoint behaves like
    x^(s-2) and the fixed refinement depth cannot be trusted to the default
    target).  Returns (value, err_estimate) where err_estimate reflects the
    final refinement step plus the truncation remainder.
    """
    return _laplace_quad("quad_hurwitz", s, 2.5, alpha, spec, lambda x: -math.expm1(-x))


def quad_eta_split(s, alpha, spec=None):
    """Alternating-kernel Laplace integral: sum of (-1)^n (n+alpha)^(-s),
    equal to 2^-s * (zeta(s, alpha/2) - zeta(s, (alpha+1)/2)).  Valid for
    s >= 1.5 (the x -> 0 endpoint is x^(s-1)/2, mild).  Returns
    (value, err_estimate)."""
    return _laplace_quad("quad_eta_split", s, 1.5, alpha, spec, lambda x: 1.0 + math.exp(-x))


def _check_power_sum(m, n):
    if not (isinstance(m, int) and isinstance(n, int)):
        raise DomainError("m and n must be integers")
    if m < 0 or n < 0:
        raise DomainError("m and n must be >= 0")


def brute_power_sum(m, n):
    """sum of k^m for k = 1..n, exact integer arithmetic."""
    _check_power_sum(m, n)
    return sum(k ** m for k in range(1, n + 1))


def brute_alt_power_sum(m, n):
    """sum of (-1)^(k-1) k^m for k = 1..n, exact integer arithmetic."""
    _check_power_sum(m, n)
    return sum((k ** m if k % 2 else -(k ** m)) for k in range(1, n + 1))
