"""Property tests of the Hurwitz kernel's certificate against a decimal
Euler-Maclaurin reference far past double precision."""

import math
from decimal import Decimal

import pytest

from helpers import decimal_hurwitz
from zetasums.special import EPS, _hurwitz_core

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    s=st.floats(1.001, 60.0, exclude_min=True),
    alpha=_log_uniform(1e-4, 1e5),
    target=_log_uniform(1e-16, 1e-4),
)
def test_kernel_bound_is_sound_and_tight(s, alpha, target):
    value, bound = _hurwitz_core(s, alpha, target)
    ref = decimal_hurwitz(s, alpha)
    assert abs(Decimal(value) - ref) <= Decimal(bound)
    if target >= 4.0 * EPS * float(ref):
        # above the rounding floor the kernel reaches what it is asked for
        assert bound <= target
    if alpha >= 2.0 * max(10.0, s):
        # far from the origin the bound is the rounding charge alone
        assert bound <= 1.01 * 2.0 * EPS * value
