"""The affine sum sum_k zeta(s, ka+b), the paper's headline sum, on the direct
route and on its reciprocal-lattice transformation against an independent
high-precision reference: the plus-sign Laplace integral by mpmath.  The two
routes close with different enclosures (Euler-Maclaurin on the a and on the
1/a lattice), and the reference shares nothing with either."""

import math

import pytest

from helpers import assert_routes_enclose, laplace_affine_sum
from zetasums import (
    Family,
    Sign,
    SumSpec,
    Tolerance,
    eval_direct,
    kappa_ab_transformed,
)

pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_ROUTES = {
    "direct": lambda s, a, b, tol: eval_direct(
        SumSpec(family=Family.GENERAL_AB, s=s, a=a, b=b, tol=tol)
    ),
    "kappa_ab_transformed": kappa_ab_transformed,
}


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    s_minus_2=_log_uniform(1e-3, 8.0),
    a=_log_uniform(0.01, 10.0),
    b=st.floats(0.3, 3.0),
    tol=_log_uniform(1e-14, 1e-4),
)
def test_both_routes_enclose_the_laplace_reference(s_minus_2, a, b, tol):
    s = 2.0 + s_minus_2
    ref, ref_err = laplace_affine_sum(s, a, b, Sign.PLUS)
    assert ref_err <= 1e-20 * abs(ref)
    assert_routes_enclose(_ROUTES, (s, a, b, Tolerance(tol)), tol, ref, ref_err)
