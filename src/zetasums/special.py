"""Double-precision special functions with certified absolute error bounds.

Everything here returns binary64 values together with (internally) an honest
bound on the absolute error: analytic remainder of the summation scheme plus
an explicit floating-point slop term proportional to the gross magnitude of
everything that was accumulated.  The public entry points take a Tolerance
and fail loudly when the requested bound cannot be certified.

The Hurwitz zeta evaluator is Euler-Maclaurin with an enveloping remainder:
for completely monotone integrands the remainder after the order-2r
correction is bounded by the first omitted correction term and carries its
sign, so the first omitted term is a rigorous enclosure half-width.  The
same argument, through Boole's summation, encloses the exponentially damped
lattice sums behind the Lerch kernel and the exp-weighted tails.
"""

import math
import operator
import os
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, UnattainableError

__all__ = [
    "DEFAULT_TERM_BUDGET", "term_budget", "Tolerance", "bernoulli_fraction",
    "bernoulli_numbers", "gamma_fn", "pochhammer", "hurwitz_zeta", "riemann_zeta",
    "hurwitz_tail_bound", "dirichlet_eta",
]

EPS = 2.0 ** -52
TOL_FLOOR = 2.0 ** -52
# parameters closer than this to an open domain boundary are rejected, not clamped
BOUNDARY_MARGIN = 1e-12

DEFAULT_TERM_BUDGET = 10_000_000


def term_budget() -> int:
    """Global series-length cap; override with the ZS_TERM_BUDGET env var."""
    raw = os.environ.get("ZS_TERM_BUDGET")
    if raw is None:
        return DEFAULT_TERM_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"ZS_TERM_BUDGET must be an integer, got {raw!r}")
    if value < 1:
        raise DomainError("ZS_TERM_BUDGET must be >= 1")
    return value


class Tolerance(namedtuple("Tolerance", "abs_tol")):
    """Accuracy request: abs_tol is the certified absolute bound."""

    __slots__ = ()

    def __new__(cls, abs_tol):
        if not math.isfinite(abs_tol):
            raise DomainError("abs_tol must be finite")
        if abs_tol < TOL_FLOOR:
            raise DomainError("abs_tol must be at least 2^-52")
        return tuple.__new__(cls, (abs_tol,))


# ---------------------------------------------------------------------------
# Bernoulli numbers (B1 = -1/2 convention), built once at import so the table
# is immutable afterwards and safe for concurrent readers.

_BERNOULLI_MAX = 64


def _build_bernoulli(n_max):
    """B_0 .. B_{n_max} from the tangent numbers T_k, on integers only
    (Brent & Harvey 2011): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    kmax = n_max // 2
    t = [0] + [math.factorial(k - 1) for k in range(1, kmax + 1)]
    for k in range(2, kmax + 1):
        for j in range(k, kmax + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n_max - 1)
    for k in range(1, kmax + 1):
        table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
    return tuple(table)


_BERN = _build_bernoulli(_BERNOULLI_MAX)


def bernoulli_fraction(n):
    """Exact B_n for 0 <= n <= 64."""
    if not isinstance(n, int) or n < 0 or n > _BERNOULLI_MAX:
        raise DomainError(f"Bernoulli index must be an integer in [0, {_BERNOULLI_MAX}]")
    return _BERN[n]


def bernoulli_numbers(n_max):
    """B_0 .. B_{n_max} as a tuple of exact Fractions (B1 = -1/2)."""
    if not isinstance(n_max, int) or n_max < 0 or n_max > _BERNOULLI_MAX:
        raise DomainError(f"n_max must be an integer in [0, {_BERNOULLI_MAX}]")
    return _BERN[: n_max + 1]


# B_{2r}/(2r)! as floats; index r.  r runs one past the correction cap so the
# first omitted term is always available as the enclosure half-width.
_EM_MAX_ORDER = 12  # corrections through B_24
_EM_C = tuple(
    float(_BERN[2 * r] / Fraction(math.factorial(2 * r))) for r in range(_EM_MAX_ORDER + 2)
)


def gamma_fn(s):
    """Gamma(s) for real s > 0, by the standard library's math.gamma."""
    _require_positive(s, "gamma_fn", "s")
    try:
        return math.gamma(s)
    except OverflowError:
        raise DomainError("gamma_fn result exceeds double range") from None


def pochhammer(a, n):
    """Rising factorial a(a+1)...(a+n-1); empty product is 1."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("pochhammer requires integer n >= 0")
    if not math.isfinite(a):
        raise DomainError("pochhammer requires finite a")
    prod = _poch_raw(a, n)
    if not math.isfinite(prod):
        raise DomainError("pochhammer result exceeds double range")
    return prod


def _poch_raw(a, n):
    # internal: no overflow check (callers treat inf as "skip this order")
    prod = 1.0
    for i in range(n):
        prod *= a + i
    return prod


# Rounding charge per unit of gross magnitude: libm pow within ~0.55 ulp,
# compensated (or fsum's exactly rounded) accumulation within ~1 ulp of the
# gross, and the kernel's plain correction sum within 0.124 eps of its head:
# 2 eps * gross is an honest ceiling on the arithmetic error (2 eps is exact).
_FP_SLOP = 2.0 * EPS


def fp_slop(gross):
    return _FP_SLOP * gross


# ---------------------------------------------------------------------------
# Hurwitz zeta core.

_NORMAL_MIN = 2.0 ** -1022  # the smallest normal double


# An Euler-Maclaurin order stops once its first omitted term is this small
# against the head term: past it the envelope no longer shows in the bound.
_EM_NEGLIGIBLE = EPS * 2.0 ** -20
# (C_{r+1}/C_r, 2r - 1, 2r) for r = 1 .. _EM_MAX_ORDER: the correction
# C_r (s)_{2r-1} z^{-s-2r+1} times ratio (s+2r-1)(s+2r)/z^2 is the next one
_EM_STEPS = tuple(
    (_EM_C[r + 1] / _EM_C[r], 2.0 * r - 1.0, 2.0 * r) for r in range(1, _EM_MAX_ORDER + 1)
)


def _split(s):
    """Where _hurwitz_core's explicit terms end, as its docstring derives."""
    return 20 if s < 10.0 else min(2 * math.ceil(s), math.floor(2.0 ** (1076.0 / s)) + 1)


# float(n) for every explicit term n below the split: the split is at most
# 2 ceil(s) <= 268 up to s = 134, and under 2^(1076/134) + 1 < 263 past it
_FLOAT_N = tuple(map(float, range(268)))


def _held(s):
    """_hurwitz_core's work on s alone, the walk's factor per order among it,
    each rounded as a pass rounds it inline; None where (s EPS)^2 overflows."""
    try:
        square = (s * EPS) ** 2
    except OverflowError:
        return None
    factors = tuple(ratio * (s + k1) * (s + k2) for ratio, k1, k2 in _EM_STEPS)
    return _split(s), -s, s - 1.0, _EM_C[1] * s, square, factors


def _hurwitz_core(s, alpha, held=None):
    """zeta(s, alpha) for s > 1, alpha > 0 with a certified absolute bound.

    Returns (value, bound) of one Euler-Maclaurin pass, DomainError where a
    step leaves double range (alpha = inf too).  No domain validation here.
    held = _held(s) only saves work: the same roundings give the same bits.

    N explicit terms put z = N + alpha at or past the split; z = alpha when
    alpha is already there, and that pass, with no explicit terms, is taken
    directly.  The split is 20 for s < 10, else the smaller of 2 ceil(s) and
    floor(2^(1076/s)) + 1.  At z >= 20 and z >= 2 ceil(s) each correction is
    |C_(r+1)/C_r| (s + 2r - 1)(s + 2r)/z^2 <= 0.0711 of the one before (most
    at s = 10, z = 20, r = 12), so the envelope ends under 1e-5 of the head's
    rounding charge: more explicit terms could not lower the bound.  From
    floor(2^(1076/s)) + 1 >= 2 on, every (n + alpha)^-s < 2^-1076 rounds to
    0, and so do z^-s and every correction where that point comes first (s
    above about 133): no pass sums more than 268 terms, the most at
    133 < s < 133.49.  The rounding of n + alpha would grow by a factor s in
    (n + alpha)^-s, so it is compensated to first order: x = fl(n + alpha)
    misses by d exactly (Fast2Sum, the larger of n and alpha first), and
    x^-s (1 - s d/x) is the term; each n comes as a float from _FLOAT_N, which
    holds the 268.  Where z - N == alpha, every n + alpha, n <= N, is exact
    (or at alpha >= 2^53 every power is 0), so the exact-lattice pass leaves
    out that arithmetic on zeros.  Every pass closes in one walk over the
    corrections from the first, z^{-s-1}: it carries the first-order factor
    for the rounding of z, and the later ones, each under 1/100 of it,
    inherit it, missing (2r - 2) dz of each, far inside the rounding charge.
    A step is corr * f * z^-2, with f = ratio (s + 2r - 1)(s + 2r) per order;
    the corrections' plain sum enters (hi, lo) by one Fast2Sum, as |hi| >=
    head > 48 |first| >= |sum|; its <= 11 roundings, each EPS/2 of 1.077
    |first|, stay under 0.124 EPS head, in the 2 EPS gross charge.  Below the
    split where z^-s < m = 2^-1022, the remainder past z and its head, half
    and corrections lie in [0, (1 + z/(s - 1)) m): that bounds their
    difference, with m to spare for subnormal drift products (s u each, u =
    2^-1074), and N u covers the N powers, each within u where subnormal.
    """
    if held is None:
        split, neg_s, s1, c1s = _split(s), -s, s - 1.0, _EM_C[1] * s
    else:
        split, neg_s, s1, c1s, square, factors = held
    try:
        if split <= alpha < math.inf:
            # z = alpha exactly, so dz = 0: the general pass less its operations on zeros
            z = alpha
            zs = alpha ** neg_s
            if zs < _NORMAL_MIN:
                # alpha^-s lost its bits to underflow, and head and half with it.
                # zeta lies within alpha^-s (< 2 _NORMAL_MIN) above the integral
                # alpha^(1-s)/(s-1); 1 - s and s - 1 are exact, pow and / round
                head = alpha ** (1.0 - s) / s1
                return head, _FP_SLOP * head + 2.0 * _NORMAL_MIN
            head = zs * alpha / s1
            half = 0.5 * zs
            hi = gross = head + half
            lo = (head - hi) + half
            corr = c1s * zs / alpha
        else:
            n_terms = math.ceil(split - alpha)
            z = n_terms + alpha
            zs = z ** neg_s
            head = zs * z / s1
            half = 0.5 * zs
            corr = c1s * zs / z
            # explicit terms: Neumaier pair, and the sum of x^-s d/x; terms fall with n,
            # so part_hi >= t (or part_hi = 0, where the sum is exact): no branch
            part_hi = part_lo = 0.0
            if z - n_terms == alpha:
                x = alpha
                for _ in range(n_terms):
                    t = x ** neg_s
                    x += 1.0  # n + alpha, exactly
                    hi = part_hi + t
                    part_lo += (part_hi - hi) + t
                    part_hi = hi
                lo = part_lo
            else:
                drift = 0.0
                for n in _FLOAT_N[:n_terms]:
                    x = n + alpha
                    d = alpha - (x - n) if n >= alpha else n - (x - alpha)
                    t = x ** neg_s
                    drift += t * d / x
                    hi = part_hi + t
                    part_lo += (part_hi - hi) + t
                    part_hi = hi
                dz = (alpha - (z - n_terms) if n_terms >= alpha else n_terms - (z - alpha)) / z
                lo = part_lo - s * drift - dz * (s1 * head + s * half)
                corr *= 1.0 - (s + 1.0) * dz
            hi = part_hi + head
            if part_hi >= head:
                lo += (part_hi - hi) + head
            else:
                lo += (head - hi) + part_hi
            # Fast2Sum needs no branch: hi >= head > half, or all 0
            t = hi + half
            lo += (hi - t) + half
            hi = t
            # every explicit term is positive, so their sum is also their gross
            gross = part_hi + part_lo + head + half
        z2 = 1.0 / (z * z)
        env = abs(corr)
        negligible = _EM_NEGLIGIBLE * head
        csum = 0.0
        if held is None:
            for ratio, k1, k2 in _EM_STEPS:
                if env <= negligible:
                    break
                csum += corr
                gross += env
                corr = corr * (ratio * (s + k1) * (s + k2)) * z2
                env = abs(corr)
            square = (s * EPS) ** 2
        else:
            for f in factors:
                if env <= negligible:
                    break
                csum += corr
                gross += env
                corr = corr * f * z2
                env = abs(corr)
        t = hi + csum
        lo += (hi - t) + csum
        hi = t
        if zs < _NORMAL_MIN:  # below the split only: see the docstring
            env += (1.0 + z / s1) * _NORMAL_MIN + n_terms * 2.0 ** -1074
        # (s EPS)^2 per unit of gross: every compensated addend's second-order remainder
        return hi + lo, env + _FP_SLOP * gross + square * gross
    except OverflowError:
        raise _beyond_double_range(s, alpha) from None


def _sum_terms(s, terms, envelope=0.0):
    """(value, halfwidth) of sum(c [2^-s] zeta(s - shift, alpha)) over the
    (c, shift, alpha, two_pow_neg_s) terms, c a Fraction or a float, plus
    envelope, a truncation half-width: the one evaluator of closed forms and
    tails.  Its one rounding charge is fp_slop(gross): fsum rounds once,
    within EPS/2 of gross, and each part carries at most three roundings of
    EPS/2 of itself, two in its coefficient (a Fraction's conversion, or
    2^-s times a dyadic one; the lattice tail's shrinking Euler-Maclaurin
    corrections aside) and one in its product with the zeta value."""
    pow2 = 2.0 ** -s
    parts = []
    err = gross = 0.0
    for c, shift, alpha, two_pow_neg_s in terms:
        coef = float(c) * pow2 if two_pow_neg_s else float(c)
        v, b = _hurwitz_core(s - shift, alpha)
        parts.append(coef * v)
        gross += abs(coef * v)
        err += abs(coef) * b
    return math.fsum(parts), envelope + err + fp_slop(gross)


def hurwitz_zeta(s, alpha, tol):
    """Hurwitz zeta sum over (n+alpha)^-s, n >= 0; requires s > 1, alpha > 0."""
    _require_tol(tol)
    _require_s(s, 1.0, "hurwitz_zeta")
    _require_positive(alpha, "hurwitz_zeta")
    return _certified(*_hurwitz_core(s, alpha), tol)


def riemann_zeta(s, tol):
    """zeta(s) for s > 1: zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0, tol)


def hurwitz_tail_bound(s, alpha):
    """Certified upper bound alpha^-s + alpha^(1-s)/(s-1) >= zeta(s, alpha).

    The first term dominates n=0 and the integral dominates the rest.  The
    analytic slack, about half the first term or (s-1)/(2 alpha) of the sum,
    swamps the few ulps of rounding here until alpha nears (s-1)/(8 EPS);
    past that the rounding is charged, 4 EPS of the sum.

    Where alpha^(1-s)/(s-1) is subnormal or 0, which needs s - 1 > 0.998
    (alpha is at most 2^1024), relative charges fail and the rounding is
    charged in units u = 2^-1074.  With a faithful pow, alpha^(1-s) is off by
    one ulp: at most (s-1) u where normal, u where subnormal, so at most
    1.002 u once divided by s - 1.  The division adds u/2.  alpha^-s is off
    by at most u where it is subnormal too, which it always is for s < 140.
    Adding multiples of u is exact.  That is under 2.51 u, so 3 u are added.
    """
    _require_s(s, 1.0, "hurwitz_tail_bound")
    _require_positive(alpha, "hurwitz_tail_bound")
    return _tail_bound(s, alpha)


def _tail_bound(s, alpha):
    """hurwitz_tail_bound without its input checks, for callers that hold
    s > 1 and alpha > 0 already."""
    try:
        tail = alpha ** (1.0 - s) / (s - 1.0)
        bound = alpha ** -s + tail
    except OverflowError:
        return math.inf  # still an upper bound
    if 8.0 * EPS * alpha > s - 1.0:
        bound *= 1.0 + 4.0 * EPS
    if tail < 2.0 ** -1022:
        bound += 3.0 * 2.0 ** -1074
    return bound


def dirichlet_eta(s, tol):
    """Alternating zeta (1 - 2^(1-s)) * zeta(s) for s > 1.

    The kernel's bound covers zeta only.  The charge covers the rest, with
    u = EPS/2 and y = (s - 1) log 2.  The computed argument of expm1 carries
    relative error 2u (log(2.0) and the product; 1 - s is exact for s <= 2)
    or 3u for s > 2, and expm1's slope moves F = 1 - 2^(1-s) by that times
    y/(e^y - 1) of itself: at most 2u, and 2.08u for s > 2, where y > log 2.
    expm1's own 1 ulp adds 2u of F, and the product factor * value u of
    itself: 5.08u = 2.54 EPS in all.  factor * bound may fall short of F
    times the kernel's bound by 5.08u of that bound, and the sum rounds by
    u of itself: second order while the bound is small against the value,
    and 3 EPS leaves 0.46 EPS of |factor * value| for them.
    """
    _require_tol(tol)
    _require_s(s, 1.0, "dirichlet_eta")
    factor = -math.expm1((1.0 - s) * math.log(2.0))  # 1 - 2^(1-s), stable near s=1
    value, bound = _hurwitz_core(s, 1.0)
    return _certified(factor * value, factor * bound + 3.0 * EPS * abs(factor * value), tol)


# ---------------------------------------------------------------------------
# Exponentially damped lattice sums  sum over j >= 0 of (+-e^-c)^j F(X + jh)
# for a completely monotone F, at a cost that does not grow with 1/c.
#
# Minus sign: G(t) = e^(-ct) F(X + th) is completely monotone, and Boole's
# summation sum (-1)^j G(j) = G(0)/2 - sum_n (4^n - 1) C_n G^(2n-1)(0), with
# C_n = B_2n/(2n)!, has a remainder of the sign of the first omitted term and
# no larger: the same envelope argument as Euler-Maclaurin's.  Plus sign:
# P(q, X, h) = A(q, X, h) + 2q P(q^2, X + h, 2h) exactly, A the alternating
# sum, so log2(1/c) halvings reach a decay fast enough for a short explicit
# sum.  Every sum and level starts with explicit terms, walked by the one
# loop of _lattice_sum; only a minus sign at c < _HALVING_STOP hands a rest
# to Boole.  F is given by phi(x, i) -> (|F^(i)(x)|, certified error).

# the plus sign halves while the decay per lattice step is below this
_HALVING_STOP = 0.5
# a truncation this far below the level's magnitude no longer shows in a bound
_DAMPED_NEGLIGIBLE = EPS / 16.0
# (4^n - 1) C_n, and binomial rows through 2 * (_EM_MAX_ORDER + 1) - 1
_BOOLE_A = tuple((4.0 ** n - 1.0) * _EM_C[n] for n in range(_EM_MAX_ORDER + 2))
_BINOM = tuple(
    tuple(float(math.comb(m, i)) for i in range(m + 1)) for m in range(2 * _EM_MAX_ORDER + 2)
)
# Boole starts at lattice coordinate 15 + 1.7 s: there, for c < 1/2 and
# s <= 40, its corrections reach _DAMPED_NEGLIGIBLE of the level within
# _EM_MAX_ORDER orders; where they do not, the explicit terms extend from
# where they stopped to twice as many, at most _BOOLE_RETRIES times
_BOOLE_RETRIES = 3


def _rising(s):
    """i -> (s)_i for a phi's derivative orders, each formed once from the one
    before in _poch_raw's order: s + (i - 1) first, so (s)_1 is s exactly and
    (s)_i is within (i - 1) EPS."""
    poch = [1.0]

    def at(i):
        while len(poch) <= i:
            poch.append(poch[-1] * (s + (len(poch) - 1)))
        return poch[i]

    return at


def _power_phi(s):
    """phi for F(x) = x^-s, s > 0: (s)_i x^(-s-i), within (i + 2) EPS, plus ((s)_i + 1)
    2^-1074 where the power or the product is subnormal: each rounds by 2^-1074 at most."""
    rising = _rising(s)

    def phi(x, i):
        poch = rising(i)
        p = x ** (-s - i)
        v = poch * p
        under = (poch + 1.0) * 2.0 ** -1074 if p < _NORMAL_MIN or v < _NORMAL_MIN else 0.0
        return v, (i + 2.0) * EPS * v + under

    return phi


# Each piece below is charged its own evaluation error plus the rounding of
# its weight ((e + 1) EPS for e^-e) and of its lattice point (s EPS: F and
# its derivatives change by at most (s + i) |dx|/x relative); pieces are
# added by math.fsum, which rounds once.  A weight e^-0 = 1 is exact, and so
# is Boole's first point X + 0 h, whose rounding is the caller's to charge.


def _boole(phi, s, c, x0, hs, trunc, ref, exact=False):
    """(value, err, done) of sum over t >= 0 of (-1)^t G(t), G(t) = e^(-ct) F(x0 + t hs),
    c < 1, by Boole's summation.  The first omitted correction T gives the
    remainder's midpoint T/2 and half-width |T|/2; the walk stops once |T|/2
    is at most trunc or _DAMPED_NEGLIGIBLE of ref plus the head G(0)/2
    (done), or at the first correction that does not shrink, overflows or
    needs a subnormal derivative: the one before stays the first omitted.
    M_m = sum_i binom(m, i) c^(m-i) hs^i |F^(i)(x0)| is |G^(m)(0)|.  At c = 0
    it is hs^m |F^(m)(x0)|, so only order 0 and the odd orders are formed.
    Each even order's subnormal test then reads its floor from the odd one,
    |F^(i-1)(x)| >= x |F^(i)(x)|/(s + i - 1) for x^-s and zeta(s, x) alike:
    the walk stops no later than where it stopped with every order formed.
    exact: x0 is the lattice origin itself, not a rounded lattice point."""
    xr = 0.0 if exact else s
    n_max = _EM_MAX_ORDER + 1
    psi, perr, cpow = [], [], []

    def corr(n):
        m = 2 * n - 1
        while len(psi) <= m:
            i = len(psi)
            if c == 0.0 and i % 2 == 0 < i:
                hp = v = e = 0.0  # weighed by c^(m - i) = 0 in every M_m: never formed
            else:
                hp = hs ** i
                v, e = phi(x0, i)
                # F^(i) underflowed: its absolute charge, times hs^i, would swamp the walk.
                # At c = 0 the unformed F^(i-1) is tested by its floor x0 F^(i)/(s + i - 1)
                if n > 1 and (
                    v < _NORMAL_MIN or c == 0.0 and v * x0 < (s + (i - 1)) * _NORMAL_MIN
                ):
                    return None
            psi.append(hp * v)
            perr.append(hp * e)
            cpow.append(c ** i)
        if c == 0.0:
            # M_m = hs^m |F^(m)(x0)|: the weighted sum adds exact zeros to it
            big, err = psi[m], perr[m]
        else:
            # a plain loop, not sum(): sum() compensates from Python 3.12 on
            big = err = 0.0
            for w, p, pe in zip(map(operator.mul, _BINOM[m], reversed(cpow)), psi, perr):
                big += w * p
                err += w * pe
        a = _BOOLE_A[n]
        # the rounding of M_m, of c^k and of the lattice point x0
        return a * big, abs(a) * (err + (xr + 2.0 * m + 6.0) * EPS * big)

    t, t_err = corr(1)
    head = 0.5 * psi[0]
    stop = max(trunc, _DAMPED_NEGLIGIBLE * (ref + head))
    parts = [head]
    err = 0.5 * perr[0] + (xr + 2.0) * EPS * head
    for n in range(2, n_max + 1):
        if 0.5 * abs(t) <= stop:
            break
        try:
            nxt = corr(n)
        except OverflowError:
            break  # hs^i or F^(i) leaves double range; t stays the first omitted one
        if nxt is None or abs(nxt[0]) >= abs(t):
            break
        parts.append(t)
        err += t_err
        t, t_err = nxt
    parts.append(0.5 * t)
    value = math.fsum(parts)
    return value, err + 0.5 * abs(t) + t_err + EPS * abs(value), 0.5 * abs(t) <= stop


def _lattice_sum(phi, s, c, X, h, first, step, sign, target):
    """(value, err) of sum over j >= 0 of (sign e^-c)^j F(X + (first + j step) h):
    explicit terms until the rest is at most target or _DAMPED_NEGLIGIBLE of
    their gross.  F decreases, so past term j the rest lies within
    q^(j+1) F(x_j) / (1 - q) of 0 for the plus sign, and between 0 and the
    next term for the minus sign; half of that is the midpoint.  The minus
    sign at c < _HALVING_STOP stops its explicit terms at lattice coordinate
    15 + 1.7 s and sums the rest by Boole's summation; where that walk falls
    short, the explicit terms extend, at most _BOOLE_RETRIES times."""
    q = math.exp(-c)
    # the rest is bounded through F at the rounded x_j: (s + 4) EPS covers it
    scale = (1.0 + (s + 4.0) * EPS) / (1.0 - q if sign > 0.0 else 1.0)
    if sign < 0.0 and c < _HALVING_STOP:
        lead = 15.0 + 1.7 * s - (X + first * h) / (step * h)  # -inf where X/hs overflows
        cap = math.ceil(lead) if lead > 0.0 else 0
    else:
        cap = math.inf
    terms = []
    err = gross = 0.0
    j = 0
    for attempt in range(_BOOLE_RETRIES + 1):
        if attempt:
            cap = max(2 * j, 8)
        while j < cap:
            e = j * c
            w = math.exp(-e)
            v, ev = phi(X + (first + j * step) * h, 0)
            terms.append(w * v if sign > 0.0 or j % 2 == 0 else -w * v)
            gross += w * v
            err += w * ev + (s + e + 1.0) * EPS * w * v
            j += 1
            rem = q * w * (v + ev) * scale
            if rem <= target or rem <= _DAMPED_NEGLIGIBLE * gross:
                terms.append(0.5 * rem if sign > 0.0 or j % 2 == 0 else -0.5 * rem)
                value = math.fsum(terms)
                return value, err + 0.5 * rem + EPS * abs(value)
        e = j * c
        pre = math.exp(-e)
        b, b_err, done = _boole(
            phi, s, c, X + (first + j * step) * h, step * h,
            0.5 * target / pre, gross / pre, first == j == 0,
        )
        if done:
            break
    terms.append(pre * b if j % 2 == 0 else -pre * b)
    value = math.fsum(terms)
    err += pre * b_err + (e + 1.0 if e else 0.0) * EPS * pre * abs(b) + EPS * abs(value)
    return value, err


def _damped_lattice(phi, s, sign, c, X, h, target):
    """(value, bound) of sum over j >= 0 of (sign e^-c)^j F(X + jh), c >= 0,
    F completely monotone (x^-s, s > 0, or zeta(s, x), s > 1), by Boole
    summation (minus sign) or halving into alternating levels (plus sign):
    O(log(1/c)) levels of O(s) evaluations each.  target is advisory.
    c = 0 is valid for the minus sign only: Boole needs no damping, but the
    plus-sign halving loop (while 2^levels c < _HALVING_STOP) never ends.

    Plus-sign level k is A(q^(2^k), X + (2^k - 1) h, 2^k h) with weight
    W_k = 2^k q^(2^k - 1); its error and rounding carry W_k."""
    if c >= _HALVING_STOP or sign < 0.0:
        return _lattice_sum(phi, s, c, X, h, 0, 1, sign, 0.5 * target)
    levels = 1
    while (2 ** levels) * c < _HALVING_STOP:
        levels += 1
    share = 0.5 * target / (levels + 1)
    parts = []
    err = 0.0
    for k in range(levels + 1):
        step = 2 ** k
        e = (step - 1) * c
        weight = step * math.exp(-e)
        sign_k = 1.0 if k == levels else -1.0
        v, v_err = _lattice_sum(phi, s, step * c, X, h, step - 1, step, sign_k, share / weight)
        parts.append(weight * v)
        err += weight * v_err + (e + 2.0) * EPS * weight * abs(v)
    value = math.fsum(parts)
    return value, err + EPS * abs(value)


def _damped_zeta(s, sign, c, X, h, target):
    """(value, bound) of sum over j >= 0 of (sign e^-c)^j zeta(s, X + jh), s > 1,
    for an X rounded once: its error moves the sum by at most s EPS |value|
    (|d/dX| <= s zeta(s, x)/x termwise, and |value| >= zeta(s, X)/2 for the
    minus sign).  c = 0 is valid for the minus sign only.

    Plus-sign halving levels lie on each other's lattices, so one x recurs
    in bit-equal form: an order-0 result is kept for this call only and
    reused."""
    seen = {}
    rising = _rising(s)

    def phi(x, i):
        if i == 0:
            if x not in seen:
                seen[x] = _hurwitz_core(s, x)
            return seen[x]
        p = rising(i)
        v, b = _hurwitz_core(s + i, x)
        return p * v, p * b + i * EPS * p * v

    value, bound = _damped_lattice(phi, s, sign, c, X, h, target)
    return value, bound + s * EPS * abs(value)


def _lerch_slack(s):
    """r with _lerch_core's bound <= target + r |Phi| for s > 0.  Each
    truncation stops at its share of the target or at EPS/16 of the
    magnitudes summed; every evaluated piece is charged (s + 2m + 8) EPS of
    its size for its m-th derivative (m <= 26), plus the rounding of its
    weight; and the pieces' sizes stay within a small multiple of |Phi| (for
    z > 0 all levels are positive, for z < 0 |Phi| >= alpha^-s / 2).  3 000
    random points (|z| from e^-5 to within 1e-12 of 1, s in [0.05, 60],
    alpha in [1e-6, 1e6], both signs, target 0) gave at most
    1.5 (s + 64) EPS |Phi|; r allows 40 times that."""
    return 64.0 * (s + 64.0) * EPS


def _lerch_core(z, s, alpha, target):
    """Lerch sum over z^n (n+alpha)^-s with certified bound; -1 <= z < 1,
    and s > 0 unless z = 0.

    Returns (value, bound).  For s > 0 the summand is completely monotone and
    _damped_lattice encloses the sum at a cost independent of 1 - |z|, z = -1
    included (Boole's summation at c = 0).  lerch_phi runs s <= 0 through
    the series driver.
    """
    try:
        if z == 0.0:
            return alpha ** -s, EPS * alpha ** -s
        sign = 1.0 if z > 0.0 else -1.0
        return _damped_lattice(_power_phi(s), s, sign, -math.log(abs(z)), alpha, 1.0, target)
    except OverflowError:
        raise _beyond_double_range(s, alpha) from None


_UNATTAINABLE = "requested tolerance is unattainable in double precision for {}"


def _certified(value, bound, tol, what="these inputs"):
    if bound > tol.abs_tol:
        raise UnattainableError(_UNATTAINABLE.format(what))
    return value


def _beyond_double_range(s, alpha):
    """Python's float power raises OverflowError where C would give inf."""
    return DomainError(f"(n + alpha)^-s at s = {s}, alpha = {alpha} exceeds double range")


def _require_s(s, threshold, name):
    if not math.isfinite(s) or s - threshold <= BOUNDARY_MARGIN:
        raise DomainError(f"{name} requires s > {threshold:g}")


def _require_positive(x, name, symbol="alpha"):
    if not math.isfinite(x) or x <= BOUNDARY_MARGIN:
        raise DomainError(f"{name} requires {symbol} > 0")


def _require_tol(tol):
    if not isinstance(tol, Tolerance):
        raise DomainError("tol must be a Tolerance")
