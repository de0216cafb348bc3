"""Reciprocal-lattice representations of the affine zeta-sum families.

The slow sum over zeta(s, ka+b) equals a fast series over zeta values on the
1/a lattice (scaled by a^-s); the alternating version, a series of pole-free
pair differences on the 1/(2a) lattice, and the exponentially weighted
version, a series of Lerch values, leave one kind of tail: a damped zeta
series, undamped for the alternating version.  All evaluators return
SumResult with a certified tail_bound in the same sense as direct evaluation.
evaluate is the one dispatcher from a Method, or None for auto, to a route.
"""

import math
import time
from collections import namedtuple

from .errors import DomainError, NoClosedFormError
from .special import (
    EPS,
    hurwitz_tail_bound,
    _damped_zeta,
    _hurwitz_core,
    _lerch_core,
    _lerch_slack,
)
from .sums import (
    Family,
    Method,
    Sign,
    StopRule,
    SumSpec,
    eval_direct,
    _affine,
    _closed_route,
    _count_to,
    _floor_count,
    _lattice_tail,
    _pair_gap,
    _run_series,
    _unweighted,
)

__all__ = [
    "kappa_ab_transformed", "kappa_ab_alt_transformed", "corollary_b_equals_a",
    "s_pm_transformed", "term_count_estimate", "choose_method", "evaluate", "TransformReport",
    "compare_methods",
]

_TAIL_FRACTION = 0.7
_TERMS_FRACTION = 0.2
_OVER_BUDGET = (
    "transformed evaluation exceeded the term budget ({budget}); "
    "direct evaluation may suit these parameters better"
).format


def _prefactor(s, b, spacing, name):
    """A transformation's prefactor spacing^-s; DomainError outside double
    range (Python's float power raises OverflowError where C gives inf), or
    where the reciprocal lattice's first point b/spacing is."""
    if b / spacing == math.inf:
        raise DomainError(f"lattice point b/{name} is outside double range")
    try:
        w = spacing ** -s
        if w != 0.0:
            return w
    except OverflowError:
        pass
    raise DomainError(f"prefactor {name}^-s is outside double range")


def kappa_ab_transformed(s, a, b, tol, *, stop=StopRule.EARLIEST):
    """sum over k >= 0 of zeta(s, ka+b) via the reciprocal lattice:
    a^-s * sum over n >= 0 of zeta(s, (n+b)/a), tail enclosed by
    Euler-Maclaurin on the (b/a, 1/a) lattice, exactly at a = 1.  Requires
    s > 2."""
    spec = SumSpec(family=Family.GENERAL_AB, s=s, a=a, b=b, tol=tol)
    w = _prefactor(s, b, a, "a")
    tol_abs = tol.abs_tol
    count = _floor_count(spec, 1.0) if stop is StopRule.TERM_FLOOR else None

    def term(n):
        v, e = _hurwitz_core(s, (n + b) / a)
        return w * v, w * e, v

    # w * wid > tol fails the tail check whatever else it adds; 4 EPS for roundings
    cap = (1.0 + 4.0 * EPS) * tol_abs / w

    def tail(n):
        mid, wid = _lattice_tail(s, (n + b) / a, 1.0 / a, cap)
        return w * mid, w * wid

    return _run_series(term, tail, tol_abs, stop, Method.TRANSFORMED, count, _OVER_BUDGET)


def kappa_ab_alt_transformed(s, a, b, tol, *, stop=StopRule.EARLIEST):
    """sum over k >= 0 of (-1)^k zeta(s, ka+b) via pair differences on the
    1/(2a) lattice, every term a pole-free strip integral, and the c = 0 tail
    of s_pm_transformed.  Requires s > 1."""
    spec = SumSpec(family=Family.GENERAL_AB_ALT, s=s, a=a, b=b, tol=tol)
    w = _prefactor(s, b, 2.0 * a, "(2a)")
    tol_abs = tol.abs_tol
    count = _floor_count(spec, 2.0) if stop is StopRule.TERM_FLOOR else None
    tail_target = 0.45 * _TAIL_FRACTION * tol_abs

    def term(n):
        # x is rounded once, twice where n + b rounds; a relative error r in
        # x moves the gap by at most (s + 1) r of itself
        x = (n + b) / (2.0 * a)
        v, e = _pair_gap(s, x, 0.5)
        probe = _hurwitz_core(s, x)[0] if count is not None else 0.0
        return w * v, w * (e + (0.5 if n == 0 else 1.0) * (s + 1.0) * EPS * v), probe

    return _run_series(
        term, lambda n: _geo_zeta_tail(s, 0.0, -1.0, a, n + b, tail_target), tol_abs, stop,
        Method.TRANSFORMED, count, _OVER_BUDGET,
    )


def corollary_b_equals_a(s, a, sign, tol, *, stop=StopRule.EARLIEST):
    """The b = a specialization of the two affine transformations."""
    if not isinstance(sign, Sign):
        raise DomainError("sign must be a Sign")
    spec = SumSpec(family=_affine(sign), s=s, a=a, b=a, tol=tol)
    return evaluate(spec, method=Method.TRANSFORMED, stop=stop)


def _geo_zeta_tail(s, c, sign, step, start, budget):
    """(midpoint, halfwidth) of sum over j >= 0 of (sign e^-c)^j zeta(s, j*step + start),
    the exp-weighted tail past the first n Lerch terms (start = n + b)."""
    return _damped_zeta(s, sign, c, start, step, budget)


_FLOOR_REFINEMENTS = 64


def _lerch_floor_count(z, s, a, b, floor):
    """Terms of s_pm_transformed before the computed |Phi(z, s, x)|, x = (n+b)/a,
    can fall to floor: a lower bound on its TERM_FLOOR crossing.

    Phi >= x^-s g(x) with g non-decreasing in x.  For z > 0, g >= 1 (the
    first term), g >= 1/(1 - z e^(-s/x)) from (x+n)^-s >= x^-s e^(-sn/x), and,
    the summand decreasing, Phi >= the integral of q^t (x+t)^-s over (0, 1/c)
    >= (x^(1-s) - (x + 1/c)^(1-s)) / (e (s-1)), q = |z| = e^-c, which keeps
    the count near s = 1.  For z < 0, g >= 1/2 (Boole's first term, the
    summand being completely monotone) and, pairing terms 2k and 2k+1,
    g >= (1-q)/(1 - q^2 e^(-2s/x)).  So if nothing crosses before x_k, nothing
    does before x_(k+1) = (g(x_k)/floor)^(1/s); the refinement runs until it
    stalls.  The computed |Phi| is at least (1 - r) |Phi| - target,
    r = _lerch_slack(s), so floor includes the kernel's target and (1 - r)
    scales g."""
    keep = 1.0 - _lerch_slack(s)
    if keep <= 0.0:  # r >= 1 from s ~ 7e13: no positive bound, the trivial count
        return 1
    q = abs(z)
    c = -math.log(q) if z > 0.0 else math.inf  # only the plus sign reads c
    g = 1.0 if z > 0.0 else 0.5
    x = (g * keep / floor) ** (1.0 / s)
    for _ in range(_FLOOR_REFINEMENTS):
        if z > 0.0:
            g = max(
                1.0 / (1.0 - q * math.exp(-s / x)),
                x * -math.expm1((1.0 - s) * math.log1p(1.0 / (c * x))) / (math.e * (s - 1.0)),
            )
        else:
            g = max(g, (1.0 - q) / (1.0 - q * q * math.exp(-2.0 * s / x)))
        nxt = (g * keep / floor) ** (1.0 / s)
        if not math.isfinite(nxt):
            return math.inf
        if nxt <= x * (1.0 + 1e-9):
            break
        x = nxt
    return _count_to(a * x, b)


def s_pm_transformed(s, a, b, c, sign, tol, *, stop=StopRule.EARLIEST):
    """sum over k >= 0 of (+-1)^k e^(-ck) zeta(s, ka+b) as a series of Lerch
    values on the reciprocal lattice; the tail reindexes exactly into a
    geometrically damped zeta series.  c = 0 reduces to the unweighted
    transformations.  Requires s > 2 when the weight is identically 1
    (c = 0, plus sign), s > 1 otherwise."""
    SumSpec(family=Family.EXP_WEIGHTED, s=s, a=a, b=b, c=c, sign=sign, tol=tol)  # validates
    if c == 0.0:
        spec = SumSpec(family=_affine(sign), s=s, a=a, b=b, tol=tol)
        return evaluate(spec, method=Method.TRANSFORMED, stop=stop)
    w = _prefactor(s, b, a, "a")
    sgn = 1.0 if sign is Sign.PLUS else -1.0
    z = sgn * math.exp(-c)
    tol_abs = tol.abs_tol
    est = 4
    count = None
    if stop is StopRule.TERM_FLOOR:
        # twice the Lerch crossing at the bare floor: the count is a lower
        # bound on the terms run, and the runs checked took at most 1.25 times it
        est = max(2 * _lerch_floor_count(z, s, a, b, 10.0 * tol_abs), est)
    target = 0.8 * (_TERMS_FRACTION * tol_abs / est) / w
    if stop is StopRule.TERM_FLOOR:
        # the probe is |Phi| as computed, within the kernel's bound of |Phi|
        count = _lerch_floor_count(z, s, a, b, 10.0 * tol_abs + target)

    over_budget = "transformed evaluation exceeded the term budget ({budget})".format
    tail_target = 0.45 * _TAIL_FRACTION * tol_abs

    def term(n):
        v, e = _lerch_core(z, s, (n + b) / a, target)
        return w * v, w * e, abs(v)

    return _run_series(
        term, lambda n: _geo_zeta_tail(s, c, sgn, a, n + b, tail_target), tol_abs, stop,
        Method.TRANSFORMED, count, over_budget, falling=False,
    )


# ---------------------------------------------------------------------------
# Method selection and reporting.

def term_count_estimate(s, a, b, tol, side):
    """Predicted explicit-term count under conventional floor accounting:
    terms count while the bare zeta value stays above 10 * abs_tol."""
    spec = SumSpec(family=Family.GENERAL_AB, s=s, a=a, b=b, tol=tol)
    if side is Method.DIRECT:
        return _floor_count(spec)
    if side is Method.TRANSFORMED:
        return _floor_count(spec, 1.0)
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


def choose_method(spec):
    """Pick the cheaper route for a transformable family by comparing floor
    counts on both lattices; near s = 1 both can be infinite.  Ties go to the
    transformation, and a transformation whose lattice or prefactor leaves
    double range is no choice."""
    if not isinstance(spec, SumSpec):
        raise DomainError("spec must be a SumSpec")
    spacing = _transformation(_unweighted(spec.family, spec.c, spec.sign))[1]
    try:
        _prefactor(spec.s, spec.b, spacing * spec.a, "")
    except DomainError:
        return Method.DIRECT
    n_direct = _floor_count(spec)
    n_trans = _floor_count(spec, spacing)
    if spec.family is Family.EXP_WEIGHTED and spec.c > 0.0:
        # geometric damping caps the direct count; the scale is inf where
        # zeta(s, b) leaves double range
        scale = hurwitz_tail_bound(spec.s, spec.b)
        geo = _count_to(math.log(max(scale / (10.0 * spec.tol.abs_tol), 1.0)), 0.0, spec.c)
        n_direct = min(n_direct, geo)
    return Method.TRANSFORMED if n_trans <= n_direct else Method.DIRECT


def evaluate(spec, *, method=None, stop=StopRule.EARLIEST):
    """The spec's sum by the route method names: DIRECT, CLOSED_FORM (stop
    unused) or TRANSFORMED.  None picks one: the closed form where one exists
    and certifies tol, else choose_method's pick for a transformable family,
    else DIRECT; the fallback's own error is the one raised."""
    if not isinstance(spec, SumSpec):
        raise DomainError("spec must be a SumSpec")
    if method is None:
        try:
            return _closed_route(spec)
        except (NoClosedFormError, DomainError):
            pass
        method = choose_method(spec) if spec.family in _TRANSFORMED else Method.DIRECT
    if method is Method.DIRECT:
        return eval_direct(spec, stop=stop)
    if method is Method.CLOSED_FORM:
        return _closed_route(spec)
    if method is Method.TRANSFORMED:
        return _transformation(spec.family)[0](spec, stop)
    raise DomainError("method must be a Method or None")


class TransformReport(namedtuple(
    "TransformReport", "lhs_value rhs_value lhs_terms rhs_terms agreement speedup_estimate"
)):
    __slots__ = ()

    def __new__(cls, lhs_value, rhs_value, lhs_terms, rhs_terms, agreement, speedup_estimate):
        if agreement < 0.0:
            raise DomainError("agreement must be >= 0")
        if lhs_terms < 1 or rhs_terms < 1:
            raise DomainError("term counts must be >= 1")
        if not speedup_estimate > 0.0:
            raise DomainError("speedup_estimate must be positive")
        return tuple.__new__(
            cls, (lhs_value, rhs_value, lhs_terms, rhs_terms, agreement, speedup_estimate)
        )

    def to_json_dict(self):
        return self._asdict()


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
