"""The alternating affine sum sum_k (-1)^k zeta(s, ka+b) on every route
against an independent high-precision reference.  All three routes close
with the same enclosure, the minus-sign Boole sum at c = 0 (the direct tail,
and the remainder of the pair-gap series), so their agreement with one
another proves little; the Laplace integral by mpmath grades each alone."""

import math

import pytest

from helpers import assert_routes_enclose, laplace_affine_sum
from zetasums import (
    Family,
    Sign,
    SumSpec,
    Tolerance,
    eval_direct,
    kappa_ab_alt_transformed,
    s_pm_transformed,
)

pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_ROUTES = {
    "direct": lambda s, a, b, tol: eval_direct(
        SumSpec(family=Family.GENERAL_AB_ALT, s=s, a=a, b=b, tol=tol)
    ),
    "kappa_ab_alt_transformed": kappa_ab_alt_transformed,
    "s_pm_transformed": lambda s, a, b, tol: s_pm_transformed(s, a, b, 0.0, Sign.MINUS, tol),
}


def _grade_every_route(s, a, b, tol):
    ref, ref_err = laplace_affine_sum(s, a, b, Sign.MINUS)
    assert ref_err <= 1e-20 * abs(ref)
    assert_routes_enclose(_ROUTES, (s, a, b, Tolerance(tol)), tol, ref, ref_err)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    s_minus_1=_log_uniform(1e-3, 8.0),
    a=_log_uniform(0.01, 10.0),
    b=st.floats(0.3, 3.0),
    tol=_log_uniform(1e-14, 1e-4),
)
def test_every_route_encloses_the_laplace_reference(s_minus_1, a, b, tol):
    _grade_every_route(1.0 + s_minus_1, a, b, tol)


@pytest.mark.parametrize("s, a, b, tol", [
    # large s, where the pair differences' own roundings decide the bound:
    # that of the lattice point x (amplified s + 1 times) and that of s + 1
    # (amplified |log x| times).  Uncharged, they missed by 1.15x (at tol
    # 1.28e-14, now unattainable) and 1.03x
    (7.939894099497098, 0.278446212220878, 0.7859265035074119, 2e-14),
    (7.20901949550792, 0.0333781144027775, 0.5052226057768655, 3.353426302188681e-10),
])
def test_pair_difference_roundings_are_charged(s, a, b, tol):
    _grade_every_route(s, a, b, tol)
