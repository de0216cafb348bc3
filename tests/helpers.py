"""Elementary reference brackets used by the tests, and the enclosure check
the soundness tests share (assert_routes_enclose).

Everything here is deliberately low-tech: partial sums plus convexity
brackets, a Laplace-integral route through the tanh-sinh integrator of
oracles.py, the same route by mpmath's quadrature at 30 and 40 digits (for
the plain and alternating affine sums; imported only there), and a decimal
Euler-Maclaurin sum far past double precision.
Only the last shares a method with the library's own evaluators; its
Bernoulli fractions come from the textbook recurrence below, not from the
library's table, and its split point, order and arithmetic are its own, so
agreement is a genuine two-route check rather than the same code grading
itself.  drift_hurwitz_core is no reference for values: it is the kernel's
general explicit pass, kept so that its fast paths can be checked against it
bit for bit.
"""

import importlib.util
import math
import os
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import zetasums
from oracles import _tanh_sinh
from zetasums import DomainError, Sign
from zetasums.special import EPS, _EM_C, _EM_NEGLIGIBLE, _EM_STEPS, fp_slop


def bernoulli_recurrence(n_max):
    """B_0 .. B_{n_max} (B_1 = -1/2) by sum_{j<=m} binom(m+1, j) B_j = 0, in
    exact Fractions: O(n_max^2) operations, independent of the library's
    tangent-number construction."""
    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return tuple(table)


# B_0 .. B_60, for decimal_hurwitz's 30 corrections
_REF_BERN = bernoulli_recurrence(60)


def sandwich_hurwitz(s, alpha, n=10000):
    """Rigorous bracket (lo, hi) for sum_{k>=0} (k+alpha)^(-s).

    The summand f(x) = (x+alpha)^(-s) is convex and decreasing, so the
    midpoint rule under-estimates and the trapezoid rule over-estimates
    each integral cell:

      tail from n  <= integral from n-1/2  (midpoint)
      tail from n  >= integral from n      + f(n)/2  (trapezoid)

    Width shrinks like s * (n+alpha)^(-s-1), ample at the default n.
    """
    partial = math.fsum((k + alpha) ** -s for k in range(n))
    z = n + alpha
    lo = partial + z ** (1.0 - s) / (s - 1.0) + 0.5 * z ** -s
    hi = partial + (z - 0.5) ** (1.0 - s) / (s - 1.0)
    # the exact bracket can be narrower than double rounding; pad it out
    pad = 8e-16 * (partial + abs(lo - partial))
    assert lo <= hi + pad
    return lo - pad, hi + pad


def decimal_hurwitz(s, alpha, digits=64):
    """zeta(s, alpha) for s > 1, alpha > 0, each taken exactly as given, a
    binary64 or a Decimal, as a Decimal good to about `digits` significant
    digits.

    Explicit terms run to z = n + alpha >= 2(s + 60), so every Euler-Maclaurin
    correction ratio (s+2r-1)(s+2r)/(4 pi^2 z^2) through r = 30 stays below
    1/(16 pi^2) and the 30 corrections shrink the remainder far below
    10^-digits of the head term.  mpmath.zeta is not used: at large s and
    alpha it can be off by 1e-11 relative.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 12
        S, A = Decimal(s), Decimal(alpha)
        n = max(0, math.ceil(2.0 * (float(s) + 60.0) - float(alpha)))
        acc = sum((A + k) ** -S for k in range(n)) if n else Decimal(0)
        z = A + n
        zs = z ** -S
        acc += zs * z / (S - 1) + zs / 2
        poch, zpow, z2 = S, zs / z, z * z
        for r in range(1, 31):
            b = _REF_BERN[2 * r]
            acc += Decimal(b.numerator) / Decimal(b.denominator * math.factorial(2 * r)) * poch * zpow
            poch *= (S + 2 * r - 1) * (S + 2 * r)
            zpow /= z2
        return +acc


def direct_hurwitz(s, alpha, digits=30):
    """(mid, halfwidth) as mpmath numbers with zeta(s, alpha) in
    [mid - halfwidth, mid + halfwidth], for s > 1, alpha > 0, by direct
    summation: terms run until the rest past x = n + alpha, which lies in
    [x^(1-s)/(s-1), x^-s + x^(1-s)/(s-1)] for a decreasing summand, is below
    10^-digits of the sum; mid is the partial sum plus that bracket's
    midpoint.  No Euler-Maclaurin and no mpmath.zeta, which can miss in the
    10th digit at s near 100; made for large s, where few terms suffice, and
    exponents past double range are kept."""
    import mpmath

    with mpmath.workdps(digits + 10):
        S, A = mpmath.mpf(s), mpmath.mpf(alpha)
        small = mpmath.mpf(10) ** -digits
        part = mpmath.mpf(0)
        x = A
        while True:
            t = x ** -S
            integral = x ** (1 - S) / (S - 1)
            if part > 0 and t + integral <= small * part:
                return part + integral + t / 2, t / 2 + small * part
            part += t
            x += 1


def sandwich_lerch(zv, s, alpha, n=4000):
    """Bracket (lo, hi) for sum_{k>=0} z^k (k+alpha)^(-s), |z| < 1.

    Geometric remainder for positive z; for negative z the next term
    brackets the limit once magnitudes decrease (true for all k here).
    """
    assert abs(zv) < 1.0
    partial = math.fsum(zv ** k * (k + alpha) ** -s for k in range(n))
    if zv >= 0.0:
        rem = zv ** n * (n + alpha) ** -s / (1.0 - zv)
        return partial, partial + rem
    nxt = zv ** n * (n + alpha) ** -s
    return tuple(sorted((partial, partial + nxt)))


def in_bracket(value, lo, hi, slack=0.0):
    return lo - slack <= value <= hi + slack


def quad_family_sum(s, a, b, c, sign, target=1e-11):
    """Independent value of sum_{k>=0} (+-1)^k e^(-ck) zeta(s, ka+b).

    Uses the Laplace route: the double sum collapses to

      (1/Gamma(s)) * integral_0^inf x^(s-1) e^(-bx)
                       / ((1 - e^(-x)) * (1 -+ e^(-(c+ax)))) dx

    evaluated by the package's tanh-sinh rule on (0, X) with an elementary
    bound on the discarded (X, inf) tail.  For the plus sign with c < a the
    factor 1/(1 - e^(-(c+ax))) turns over at x = c/a, far inside (0, X), so
    the rule runs on (0, c/a) and (c/a, X) apart; for s < 1.5 the head
    (0, min(c/a, 1)) is integrated in t = x^(s-1).  Returns (value, err_bound).

    err_bound covers the rule's own rounding (see _tanh_sinh): one value of
    the integrand, divided by Gamma(s), takes at most 24 roundings of EPS/2
    (four libm calls within one ulp, math.gamma within two, and at most 12
    sums, products and quotients), and exp's rounded argument adds b x,
    2 b x in the head, where x = t^p is itself rounded.
    """
    plus = sign is Sign.PLUS
    gam = math.gamma(s)
    target_int = target * gam / 10.0

    x0 = max(8.0, 4.0 * (s - 1.0) / b)
    cutoff = x0
    for _ in range(200):
        # crude sup of the non-polynomial factors past the cutoff
        m1 = 1.0 / -math.expm1(-cutoff)
        if plus:
            m2 = 1.0 / -math.expm1(-(c + a * cutoff))
        else:
            m2 = 1.0
        # integral_X^inf x^(s-1) e^(-bx) dx <= X^(s-1) e^(-bX) / b / (1 - (s-1)/(bX))
        geo = 1.0 - (s - 1.0) / (b * cutoff)
        tail = cutoff ** (s - 1.0) * math.exp(-b * cutoff) / b
        if geo > 0.5:
            tail *= m1 * m2 / geo
            if tail <= target_int / 10.0:
                break
        cutoff *= 1.5
    else:
        raise AssertionError("no usable cutoff for the reference integral")

    def integrand(x):
        den1 = -math.expm1(-x)
        den2 = -math.expm1(-(c + a * x))  # = 1 - e^(-(c+ax)), no cancellation
        if den1 <= 0.0 or den2 <= 0.0:
            return 0.0  # x underflowed; the node weight is ~1e-300 anyway
        base = x ** (s - 1.0) * math.exp(-b * x) / den1
        return base / den2 if plus else base / (2.0 - den2)

    def smooth(x):
        """integrand(x) / x^(s-2), bounded at x = 0."""
        den2 = -math.expm1(-(c + a * x))
        ratio = x / -math.expm1(-x) if x > 0.0 else 1.0
        base = ratio * math.exp(-b * x)
        return base / den2 if plus else base / (2.0 - den2)

    split = c / a if plus and 0.0 < c < a else 0.0
    if s < 1.5:
        split = min(split, 1.0) if split else 1.0
    val, err = _tanh_sinh(
        lambda u: integrand(split + u), cutoff - split, 12, target_int,
        lambda u: 24.0 + b * (split + u),
    )
    if split:
        if s < 1.5:
            # x = t^p, p = 1/(s-1), turns x^(s-2) dx into p dt: the endpoint
            # singularity, too sharp for the rule in double near s = 1, is gone
            p = 1.0 / (s - 1.0)
            head, head_err = _tanh_sinh(
                lambda t: p * smooth(t ** p), split ** (s - 1.0), 12, target_int,
                lambda t: 24.0 + 2.0 * b * t ** p,
            )
        else:
            head, head_err = _tanh_sinh(
                integrand, split, 12, target_int, lambda x: 24.0 + b * x
            )
        val, err = val + head, err + head_err
    return val / gam, (err + tail) / gam


def laplace_affine_sum(s, a, b, sign):
    """sum_{k>=0} (+-1)^k zeta(s, ka+b) for the exact binary64 inputs, as an
    mpmath number, and the distance between its 30- and 40-digit values.

    The Laplace route (1/Gamma(s)) * integral_0^inf x^(s-1) g(x) dx,
    g(x) = e^(-bx) / ((1 - e^(-x)) (1 -+ e^(-ax))), by mpmath's quadrature.
    Near 0, x^(s-1) g(x) goes as x^(s-1-j), j = 2 for the plus sign (s > 2)
    and 1 for the minus sign; on (0, 1) the substitution x = u^p,
    p = 1/(s - j), turns x^(s-1) dx into p x^j du and so removes the endpoint
    singularity that near s = j is too sharp for the rule.  Shares nothing
    with the library's evaluators.  Needs mpmath.
    """
    import mpmath

    plus = sign is Sign.PLUS
    j = 2 if plus else 1

    def at(digits):
        with mpmath.workdps(digits):
            S, A, B = mpmath.mpf(s), mpmath.mpf(a), mpmath.mpf(b)
            p = 1 / (S - j)

            def g(x):
                lattice = -mpmath.expm1(-A * x) if plus else 1 + mpmath.exp(-A * x)
                return mpmath.exp(-B * x) / (-mpmath.expm1(-x) * lattice)

            head = mpmath.quad(lambda u: p * (u ** p) ** j * g(u ** p) if u > 0 else 0, [0, 1])
            rest = mpmath.quad(lambda x: x ** (S - 1) * g(x), [1, 4, 16, 64, 256, mpmath.inf])
            return (head + rest) / mpmath.gamma(S)

    ref = at(30)
    return ref, abs(ref - at(40))


def assert_routes_enclose(routes, args, tol, ref, ref_err=0):
    """Each route(*args) ends within its tail_bound of ref, a high-precision
    Decimal or mpmath number good to ref_err, or fails typed as
    "unattainable".  A small term budget keeps every call short: a run that
    would grind toward the default budget fails here as TermBudgetError.
    The difference is taken in ref's own type, so ref is not rounded."""
    exact = type(ref)
    for name, route in routes.items():
        try:
            with mock.patch.dict(os.environ, {"ZS_TERM_BUDGET": "20000"}):
                r = route(*args)
        except DomainError as exc:
            assert "unattainable" in str(exc), (name, args)
            continue
        assert r.tail_bound <= tol, (name, args)
        assert abs(exact(r.value) - ref) <= exact(r.tail_bound) + ref_err, (name, args)


def drift_hurwitz_core(s, alpha):
    """The Hurwitz kernel's explicit pass before it had an exact-lattice
    branch, for alpha below the split: every term x^-s, x = fl(n + alpha),
    compensated to first order for the rounding d of x, exact or not, and
    closed by a separate Euler-Maclaurin walk taking two abs() a step: each
    correction is the last times one factor per order and z^-2, the
    corrections are summed plainly, and that sum is Fast2Summed into the pass
    once.  The kernel must give its bits, value and bound, at every
    (s, alpha) with s < 133, where its split is this pass's own: the branch
    it skips adds and multiplies only exact zeros, and this walk's exit for
    a correction that does not shrink is never taken there.  The split
    2 ceil(s) and the cap of 4e6 terms are this pass's copy, not the
    kernel's."""
    split = 20 if s < 10.0 else 2 * math.ceil(s)
    assert alpha < split, "the explicit pass only"
    neg_s = -s
    n_terms = min(math.ceil(split - alpha), 4_000_000)
    part_hi = part_lo = drift = 0.0
    for n in map(float, range(n_terms)):
        x = n + alpha
        d = alpha - (x - n) if n >= alpha else n - (x - alpha)
        t = x ** neg_s
        drift += t * d / x
        hi = part_hi + t
        part_lo += (part_hi - hi) + t
        part_hi = hi
    z = n_terms + alpha
    dz = (alpha - (z - n_terms) if n_terms >= alpha else n_terms - (z - alpha)) / z
    zs = z ** neg_s
    head = zs * z / (s - 1.0)
    half = 0.5 * zs
    lo = part_lo - s * drift - dz * ((s - 1.0) * head + s * half)
    hi = part_hi + head
    if part_hi >= head:
        lo += (part_hi - hi) + head
    else:
        lo += (head - hi) + part_hi
    t = hi + half
    lo += (hi - t) + half
    hi = t
    gross = part_hi + part_lo + head + half
    corr = _EM_C[1] * s * zs / z * (1.0 - (s + 1.0) * dz)
    z2 = 1.0 / (z * z)
    env = abs(corr)
    negligible = _EM_NEGLIGIBLE * head
    csum = 0.0
    for ratio, k1, k2 in _EM_STEPS:
        if env <= negligible:
            break
        nxt = corr * (ratio * (s + k1) * (s + k2)) * z2
        if abs(nxt) >= env:
            break
        csum += corr
        gross += env
        corr = nxt
        env = abs(nxt)
    t = hi + csum
    lo += (hi - t) + csum
    hi = t
    return hi + lo, env + fp_slop(gross) + (s * EPS) ** 2 * gross


def timed_outcome(call, seconds, tries=3):
    """(result, exception, fast) of call(): fast says whether one of up to
    `tries` runs took at most `seconds`, the runs stopping at the first that
    does.  A real cost repeats on every run; a pause of the host does not."""
    for _ in range(tries):
        start = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # handed to the caller, which judges it
            result, error = None, exc
        if time.perf_counter() - start <= seconds:
            return result, error, True
    return result, error, False


def benchmark_requests(name, seed, n):
    """The benchmark workload called name, from perfbench/workloads.py (read,
    not changed), and the first n of its seed's requests: run each with
    workload.call(zetasums, request)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workload = module.WORKLOADS[name]
    return workload, workload.requests(zetasums, seed, n)
