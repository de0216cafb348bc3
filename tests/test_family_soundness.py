"""The integer-lattice and shifted families on the direct and the closed route
against an exact reference: the family's ZetaCombination, its Fraction
coefficients and 2^-s taken in Decimal, and every zeta(s - shift, alpha)
from the decimal Euler-Maclaurin sum at 70 digits with s - shift formed in
Decimal.  The closed route evaluates the same combination in binary64, so
the reference grades its kernel calls and rounding charges.  The direct
route's explicit terms share nothing with it but the identity, which its
agreement checks as well; its exact tails are the same builder past K >= 1
terms, which tests/test_closed.py grades on its own (consecutive tails
differ by one term, and K = 0 matches the earlier hand-typed tables).

kappa and the plain moment sums have a second reference that takes nothing
from the library: sum(k^m zeta(s, k), k >= 1) = sum(N^-s S_m(N), N >= 1) =
sum(c_p zeta(s - p)), with S_m(N) = sum(k^m, k <= N) = sum(c_p N^p)
Faulhaber's polynomial, its c_p from the textbook Bernoulli recurrence of
tests/helpers.py, and each zeta(s - p) from the decimal Euler-Maclaurin sum
at 60 digits.  It grades the builder of closed.py on both routes at every
m <= 12; the alternating and even-argument sums, whose tails run over the
odd and even half lattices, have no such reference yet."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from helpers import assert_routes_enclose, bernoulli_recurrence, decimal_hurwitz
from zetasums import (
    Family,
    SumSpec,
    Tolerance,
    convergence_threshold,
    eval_direct,
)
from zetasums.sums import _RULES, _closed_route

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_DIGITS = 70

# (family, m); shifted families also draw a
_CASES = [
    (Family.KAPPA, 0),
    (Family.KAPPA_ALT, 0),
    (Family.MOMENT, 1),
    (Family.MOMENT, 2),
    (Family.MOMENT, 3),
    (Family.MOMENT_ALT, 0),
    (Family.MOMENT_ALT, 1),
    (Family.MOMENT_ALT, 2),
    (Family.MOMENT_ALT, 6),
    (Family.EVEN_ARG_MOMENT, 0),
    (Family.EVEN_ARG_MOMENT, 1),
    (Family.EVEN_ARG_MOMENT, 2),
    (Family.EVEN_ARG_MOMENT, 6),
    (Family.SHIFTED, 0),
    (Family.SHIFTED_ALT, 0),
]

_ROUTES = {"direct": eval_direct, "closed": _closed_route}


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _exact_combination(spec):
    """The spec's ZetaCombination at spec.s in Decimal, good to ~_DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS + 12
        s = Decimal(spec.s)
        total = Decimal(0)
        for t in _RULES[spec.family].closed(spec).terms:
            c = Decimal(t.coefficient.numerator) / Decimal(t.coefficient.denominator)
            if t.two_pow_neg_s:
                c *= Decimal(2) ** -s
            total += c * decimal_hurwitz(s - t.s_shift, t.alpha, _DIGITS)
        return total


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    case=st.sampled_from(_CASES),
    s_gap=_log_uniform(1e-3, 8.0),
    tol=_log_uniform(1e-14, 1e-4),
    a=_log_uniform(0.05, 20.0),
)
def test_both_routes_enclose_the_exact_combination(case, s_gap, tol, a):
    family, m = case
    params = _RULES[family].params
    extra = {k: v for k, v in (("m", m), ("a", a)) if k in params}
    spec = SumSpec(
        family=family, s=convergence_threshold(family, m) + s_gap, tol=Tolerance(tol), **extra
    )
    assert_routes_enclose(_ROUTES, (spec,), tol, _exact_combination(spec))


def _faulhaber(m):
    """{p: c_p} with sum(k^m, k = 1 .. N) = sum(c_p N^p): (m + 1) S_m(N) is
    sum(binom(m + 1, j) B_j N^(m + 1 - j), j <= m), with B_1 = +1/2."""
    bern = bernoulli_recurrence(m + 1)[: m + 1]
    return {
        m + 1 - j: math.comb(m + 1, j) * (-b if j == 1 else b) / (m + 1)
        for j, b in enumerate(bern) if b
    }


def _moment_reference(s, m, digits=60):
    """sum(k^m zeta(s, k), k >= 1) as sum(c_p zeta(s - p)) in Decimal, s - p
    formed in Decimal."""
    with localcontext() as ctx:
        ctx.prec = digits + 12
        S = Decimal(s)
        return sum(
            Decimal(c.numerator) / Decimal(c.denominator) * decimal_hurwitz(S - p, 1, digits)
            for p, c in _faulhaber(m).items()
        )


@pytest.mark.parametrize("family, m", [(Family.KAPPA, 0)] + [(Family.MOMENT, m) for m in range(13)])
def test_moment_routes_enclose_the_faulhaber_reference(family, m):
    # five seeded draws per m: s - (m + 2) log-uniform in [1e-3, 8] and tol
    # in [1e-14, 1e-4]; an "unattainable" refusal is allowed and counted
    coeffs = _faulhaber(m)
    for n in range(1, m + 3):
        assert sum(c * n ** p for p, c in coeffs.items()) == sum(Fraction(k) ** m for k in range(1, n + 1))
    rng = random.Random(f"{family.value} {m}")
    refused = 0
    for _ in range(5):
        s = convergence_threshold(family, m) + math.exp(rng.uniform(math.log(1e-3), math.log(8.0)))
        tol = math.exp(rng.uniform(math.log(1e-14), math.log(1e-4)))
        extra = {"m": m} if "m" in _RULES[family].params else {}
        spec = SumSpec(family=family, s=s, tol=Tolerance(tol), **extra)
        refused += assert_routes_enclose(_ROUTES, (spec,), tol, _moment_reference(s, m))
    assert refused <= 2, refused
