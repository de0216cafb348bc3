"""Reciprocal-lattice representations of the affine zeta-sum families.

The slow sum over zeta(s, ka+b) equals a fast series over zeta values on the
1/a lattice (scaled by a^-s); the alternating version pairs onto the 1/(2a)
lattice with strip-integral pair differences; the exponentially weighted
version becomes a series of Lerch values whose tail reindexes exactly into a
geometrically damped zeta series.  All evaluators return SumResult with a
certified tail_bound in the same sense as direct evaluation.
"""

import math
import time
from dataclasses import asdict, dataclass

from .errors import DomainError, TermBudgetError
from .special import (
    BOUNDARY_MARGIN,
    NSum,
    Tolerance,
    fp_slop,
    hurwitz_tail_bound,
    term_budget,
    _hurwitz_core,
    _lerch_core,
)
from .sums import (
    Family,
    Method,
    Sign,
    StopRule,
    SumSpec,
    eval_direct,
    floor_crossing_arg,
    _count_to,
    _lattice_tail,
    _pair_gap,
    _paired_strip_tail,
    _run_series,
)

_TAIL_FRACTION = 0.7
_TERMS_FRACTION = 0.2
_OVER_BUDGET = (
    "transformed evaluation exceeded the term budget ({budget}); "
    "direct evaluation may suit these parameters better"
)


def _check_common(s, a, b, tol, s_min):
    if not isinstance(tol, Tolerance):
        raise DomainError("tol must be a Tolerance")
    for name, val in (("s", s), ("a", a), ("b", b)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite")
    if s - s_min <= BOUNDARY_MARGIN:
        raise DomainError(f"transformation requires s > {s_min:g}, got s = {s}")
    if a <= BOUNDARY_MARGIN or b <= BOUNDARY_MARGIN:
        raise DomainError("a and b must be > 0 (and not within 1e-12 of 0)")


def _prefactor(s, a, b, tol, stop, s_min, spacing, name):
    """Validate a transformation's inputs; its prefactor spacing^-s."""
    _check_common(s, a, b, tol, s_min)
    if not isinstance(stop, StopRule):
        raise DomainError("stop must be a StopRule")
    w = spacing ** -s
    if not math.isfinite(w) or w == 0.0:
        raise DomainError(f"prefactor {name}^-s is outside double range")
    return w


def kappa_ab_transformed(s, a, b, tol, *, stop=StopRule.EARLIEST):
    """sum over k >= 0 of zeta(s, ka+b) via the reciprocal lattice:
    a^-s * sum over n >= 0 of zeta(s, (n+b)/a), tail enclosed by
    Euler-Maclaurin on the (b/a, 1/a) lattice.  Requires s > 2."""
    w = _prefactor(s, a, b, tol, stop, 2.0, a, "a")
    tol_abs = tol.abs_tol
    count = None
    est = 4
    if stop is StopRule.TERM_FLOOR:
        count = est = _count_to(a * floor_crossing_arg(s, tol_abs), b)
    per_term = _TERMS_FRACTION * tol_abs / est

    def term(n):
        v, e = _hurwitz_core(s, (n + b) / a, 0.8 * per_term / w)
        return w * v, w * e, v

    def tail(n):
        mid, wid = _lattice_tail(s, (n + b) / a, 1.0 / a, _TAIL_FRACTION * tol_abs / w)
        return w * mid, w * wid

    return _run_series(term, tail, tol_abs, stop, Method.TRANSFORMED, count, _OVER_BUDGET)


def kappa_ab_alt_transformed(s, a, b, tol, *, stop=StopRule.EARLIEST):
    """sum over k >= 0 of (-1)^k zeta(s, ka+b) via pair differences on the
    1/(2a) lattice, every piece a pole-free strip integral.  Requires s > 1."""
    w = _prefactor(s, a, b, tol, stop, 1.0, 2.0 * a, "(2a)")
    tol_abs = tol.abs_tol
    floor = 10.0 * tol_abs
    step = 1.0 / (2.0 * a)
    count = None
    if stop is StopRule.TERM_FLOOR:
        count = _count_to(2.0 * a * floor_crossing_arg(s, tol_abs), b)

    def term(n):
        x = (n + b) * step
        v, e = _pair_gap(s, x, 0.5)
        return w * v, w * e, x

    def tail(n):
        mid, wid = _paired_strip_tail(s, (n + b) * step, step, 0.5)
        return w * mid, w * wid

    return _run_series(
        term, tail, tol_abs, stop, Method.TRANSFORMED, count, _OVER_BUDGET,
        bare=lambda x: _hurwitz_core(s, x, 0.1 * floor)[0],
    )


def corollary_b_equals_a(s, a, sign, tol, *, stop=StopRule.EARLIEST):
    """The b = a specialization of the two affine transformations."""
    return _unweighted_transformed(s, a, a, sign, tol, stop)


def _unweighted_transformed(s, a, b, sign, tol, stop):
    if not isinstance(sign, Sign):
        raise DomainError("sign must be a Sign")
    if sign is Sign.PLUS:
        return kappa_ab_transformed(s, a, b, tol, stop=stop)
    return kappa_ab_alt_transformed(s, a, b, tol, stop=stop)


def _geo_zeta_tail(z, s, step, start, budget_err):
    """(midpoint, halfwidth) of sum over j >= 0 of z^j zeta(s, j*step + start).

    Positive z: partial sum plus a bracketed geometric remainder; negative z:
    alternating, remainder within the next term's majorant.
    """
    q = abs(z)
    acc = NSum()
    errs = 0.0
    zpow = 1.0
    j = 0
    cap = term_budget()
    while True:
        v, e = _hurwitz_core(s, j * step + start, 0.2 * budget_err)
        acc.add(zpow * v)
        errs += q ** j * e
        j += 1
        zpow *= z
        rem = q ** j * hurwitz_tail_bound(s, j * step + start)
        if q < 1.0:
            rem /= 1.0 - q
        if rem <= budget_err or rem <= fp_slop(acc.gross):
            break
        if j >= cap:
            raise TermBudgetError("geometric zeta tail exceeded the term budget")
    if z > 0.0:
        return acc.total() + 0.5 * rem, 0.5 * rem + errs + fp_slop(acc.gross)
    return acc.total(), rem + errs + fp_slop(acc.gross)


def s_pm_transformed(s, a, b, c, sign, tol, *, stop=StopRule.EARLIEST):
    """sum over k >= 0 of (+-1)^k e^(-ck) zeta(s, ka+b) as a series of Lerch
    values on the reciprocal lattice; the tail reindexes exactly into a
    geometrically damped zeta series.  c = 0 reduces to the unweighted
    transformations.  Requires s > 2 when the weight is identically 1
    (c = 0, plus sign), s > 1 otherwise."""
    if not isinstance(sign, Sign):
        raise DomainError("sign must be a Sign")
    if not math.isfinite(c) or c < 0.0:
        raise DomainError("c must be finite and >= 0")
    if 0.0 < c <= BOUNDARY_MARGIN:
        raise DomainError("c is within 1e-12 of 0; use c = 0 exactly")
    if c == 0.0:
        return _unweighted_transformed(s, a, b, sign, tol, stop)
    w = _prefactor(s, a, b, tol, stop, 1.0, a, "a")
    z = math.exp(-c) if sign is Sign.PLUS else -math.exp(-c)
    tol_abs = tol.abs_tol
    est = 4
    if stop is StopRule.TERM_FLOOR:
        est = _count_to(a * floor_crossing_arg(s, tol_abs), b)
    per_term = _TERMS_FRACTION * tol_abs / est

    def term(n):
        v, e = _lerch_core(z, s, (n + b) / a, 0.8 * per_term / w)
        return w * v, w * e, abs(v)

    # no up-front budget check: the floor test is on |Phi|, which can fall
    # below the zeta bound that predicts the crossing
    return _run_series(
        term, lambda n: _geo_zeta_tail(z, s, a, n + b, 0.45 * _TAIL_FRACTION * tol_abs),
        tol_abs, stop, Method.TRANSFORMED, None,
        "transformed evaluation exceeded the term budget ({budget})",
    )


# ---------------------------------------------------------------------------
# Method selection and reporting.

def term_count_estimate(s, a, b, tol, side):
    """Predicted explicit-term count under conventional floor accounting:
    terms count while the bare zeta value stays above 10 * abs_tol."""
    _check_common(s, a, b, tol, 2.0)
    if side is Method.DIRECT:
        return _count_to(floor_crossing_arg(s, tol.abs_tol), b, a)
    if side is Method.TRANSFORMED:
        return _count_to(a * floor_crossing_arg(s, tol.abs_tol), b)
    raise DomainError("side must be Method.DIRECT or Method.TRANSFORMED")


# family -> (runner(spec, stop), spacing of the reciprocal lattice in units of a)
_TRANSFORMED = {
    Family.GENERAL_AB: (
        lambda spec, stop: kappa_ab_transformed(spec.s, spec.a, spec.b, spec.tol, stop=stop),
        1.0,
    ),
    Family.GENERAL_AB_ALT: (
        lambda spec, stop: kappa_ab_alt_transformed(spec.s, spec.a, spec.b, spec.tol, stop=stop),
        2.0,
    ),
    Family.EXP_WEIGHTED: (
        lambda spec, stop: s_pm_transformed(
            spec.s, spec.a, spec.b, spec.c, spec.sign, spec.tol, stop=stop
        ),
        1.0,
    ),
}


def _transformation(family):
    if family not in _TRANSFORMED:
        raise DomainError(f"no transformation is available for family {family.value}")
    return _TRANSFORMED[family]


def _run_transformed(spec, stop=StopRule.EARLIEST):
    """The spec's sum by its reciprocal-lattice route."""
    return _transformation(spec.family)[0](spec, stop)


def choose_method(spec):
    """Pick the cheaper route for a transformable family by comparing floor
    counts on both lattices; near s = 1 both can be infinite.  Ties go to the
    transformation."""
    if not isinstance(spec, SumSpec):
        raise DomainError("spec must be a SumSpec")
    spacing = _transformation(spec.family)[1]
    a_star = floor_crossing_arg(spec.s, spec.tol.abs_tol)
    n_direct = _count_to(a_star, spec.b, spec.a)
    n_trans = _count_to(spacing * spec.a * a_star, spec.b)
    if spec.family is Family.EXP_WEIGHTED and spec.c > 0.0:
        # geometric damping caps the direct count
        scale = hurwitz_tail_bound(spec.s, spec.b)
        geo = 1 + int(math.ceil(math.log(max(scale / (10.0 * spec.tol.abs_tol), 1.0)) / spec.c))
        n_direct = min(n_direct, geo)
    return Method.TRANSFORMED if n_trans <= n_direct else Method.DIRECT


@dataclass(frozen=True)
class TransformReport:
    lhs_value: float
    rhs_value: float
    lhs_terms: int
    rhs_terms: int
    agreement: float
    speedup_estimate: float

    def __post_init__(self):
        if self.agreement < 0.0:
            raise DomainError("agreement must be >= 0")
        if self.lhs_terms < 1 or self.rhs_terms < 1:
            raise DomainError("term counts must be >= 1")
        if not self.speedup_estimate > 0.0:
            raise DomainError("speedup_estimate must be positive")

    def to_json_dict(self):
        return asdict(self)


def _timed_compare(s, a, b, tol, stop):
    """compare_methods plus the wall time of each route in ms."""
    t0 = time.perf_counter()
    direct = eval_direct(
        SumSpec(family=Family.GENERAL_AB, s=s, a=a, b=b, tol=tol), stop=stop
    )
    t1 = time.perf_counter()
    trans = kappa_ab_transformed(s, a, b, tol, stop=stop)
    t2 = time.perf_counter()
    report = TransformReport(
        lhs_value=direct.value,
        rhs_value=trans.value,
        lhs_terms=direct.terms_used,
        rhs_terms=trans.terms_used,
        agreement=abs(direct.value - trans.value),
        speedup_estimate=direct.terms_used / trans.terms_used,
    )
    return report, (t1 - t0) * 1e3, (t2 - t1) * 1e3


def compare_methods(s, a, b, tol, *, stop=StopRule.TERM_FLOOR):
    """Run both routes of the affine sum and report their agreement."""
    return _timed_compare(s, a, b, tol, stop)[0]
