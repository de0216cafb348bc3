"""The integer-lattice and shifted families on the direct and the closed route
against an exact reference: the family's ZetaCombination, its Fraction
coefficients and 2^-s taken in Decimal, and every zeta(s - shift, alpha)
from the decimal Euler-Maclaurin sum at 70 digits with s - shift formed in
Decimal.  The closed route evaluates the same combination in binary64, so
the reference grades its kernel calls and rounding charges.  The direct
route's explicit terms share nothing with it but the identity, which its
agreement checks as well; its exact tails are the same builder past K >= 1
terms, which tests/test_closed.py grades on its own (consecutive tails
differ by one term, and K = 0 matches the earlier hand-typed tables)."""

import math
from decimal import Decimal, localcontext

import pytest

from helpers import assert_routes_enclose, decimal_hurwitz
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
