"""Lattice transformations: small-a acceleration and its bookkeeping."""

import math
import random
import time

import pytest

from helpers import quad_family_sum
from zetasums import (
    DomainError,
    Family,
    Method,
    NoClosedFormError,
    Sign,
    StopRule,
    SumSpec,
    Tolerance,
    TermBudgetError,
    TransformReport,
    ZetaSumsError,
    check_identity,
    choose_method,
    compare_methods,
    convergence_threshold,
    corollary_b_equals_a,
    eval_direct,
    evaluate,
    kappa_ab_alt_transformed,
    kappa_ab_transformed,
    riemann_zeta,
    s_pm_transformed,
    term_count_estimate,
)
from zetasums.sums import _RULES, _closed_route

T8 = Tolerance(1e-8)
T10 = Tolerance(1e-10)


class TestKappaAbTransformed:
    def test_unit_lattice_reference(self):
        r = kappa_ab_transformed(4.0, 1.0, 1.0, T10)
        assert abs(r.value - riemann_zeta(3.0, T10)) <= r.tail_bound + 1e-12
        assert r.method is Method.TRANSFORMED

    def test_small_a_against_integral_route(self):
        for s, a, b in ((4.0, 0.1, 1.0), (4.0, 0.01, 1.0), (3.0, 2.5, 0.7)):
            r = kappa_ab_transformed(s, a, b, T10)
            qv, qe = quad_family_sum(s, a, b, 0.0, Sign.PLUS)
            assert abs(r.value - qv) <= r.tail_bound + qe + 1e-12, (s, a, b)

    def test_small_a_needs_few_terms(self):
        assert kappa_ab_transformed(4.0, 0.1, 1.0, T8).terms_used <= 20
        assert kappa_ab_transformed(4.0, 0.01, 1.0, T8).terms_used <= 3

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_ab_transformed(2.0, 0.1, 1.0, T8)  # needs s > 2
        with pytest.raises(DomainError):
            kappa_ab_transformed(3.0, 0.0, 1.0, T8)
        with pytest.raises(DomainError):
            kappa_ab_transformed(3.0, 0.1, -1.0, T8)


class TestKappaAbAltTransformed:
    def test_unit_lattice_reference(self):
        r = kappa_ab_alt_transformed(2.0, 1.0, 1.0, T10)
        assert abs(r.value - math.pi ** 2 / 8.0) <= r.tail_bound + 1e-12

    def test_low_s_small_a_against_integral_route(self):
        for s, a, b in ((1.5, 0.05, 0.7), (2.0, 0.5, 1.5), (4.0, 0.1, 1.0)):
            r = kappa_ab_alt_transformed(s, a, b, T10)
            qv, qe = quad_family_sum(s, a, b, 0.0, Sign.MINUS)
            assert abs(r.value - qv) <= r.tail_bound + qe + 1e-12, (s, a, b)

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_ab_alt_transformed(1.0, 0.1, 1.0, T8)  # needs s > 1

    def test_near_pole_unattainable_fails_at_once(self):
        # the tail is ~500 with a rounding floor ~7e-13 at every term the
        # budget allows: refused on the first tail check, not after 1e7 terms
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="unattainable"):
            kappa_ab_alt_transformed(1.001, 0.5, 1.0, Tolerance(1e-13))
        assert time.perf_counter() - t0 < 1.0

    def test_near_pole_identity_relaxes_through_the_ladder(self):
        t0 = time.perf_counter()
        report = check_identity("4.3", s=1.001, a=0.5, b=1.0, tol=Tolerance(1e-13))
        assert report.passed
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("s, a, b, tol, terms", [
        (3.0, 0.5, 1.0, 1e-8, 2237),
        (4.0, 0.1, 1.0, 1e-10, 139),
        (2.5, 1.0, 0.5, 1e-6, 3290),
        (6.0, 2.0, 0.7, 1e-12, 462),
    ])
    def test_term_floor_counts(self, s, a, b, tol, terms):
        # the floor test reads zeta(s, x) at each lattice point x = (n + b)/(2a),
        # which the route's term returns as its probe under TERM_FLOOR
        r = kappa_ab_alt_transformed(s, a, b, Tolerance(tol), stop=StopRule.TERM_FLOOR)
        assert r.terms_used == terms
        assert r.tail_bound <= tol

    def test_floor_count_past_budget_fails_at_once(self, monkeypatch):
        # the floor on the 1/(2a) lattice sits ~1e7 terms out
        monkeypatch.setenv("ZS_TERM_BUDGET", "20000")
        t0 = time.perf_counter()
        with pytest.raises(TermBudgetError, match=r"term budget \(20000\)"):
            kappa_ab_alt_transformed(2.0, 0.5, 1.5, T8, stop=StopRule.TERM_FLOOR)
        assert time.perf_counter() - t0 < 1.0


class TestCorollary:
    def test_plus_matches_general_form(self):
        want = kappa_ab_transformed(4.0, 1.0, 1.0, T10)
        got = corollary_b_equals_a(4.0, 1.0, Sign.PLUS, T10)
        assert got.value == want.value
        assert abs(got.value - riemann_zeta(3.0, T10)) <= got.tail_bound + 1e-12

    def test_minus_matches_alternating_form(self):
        want = kappa_ab_alt_transformed(2.0, 0.5, 0.5, T10)
        got = corollary_b_equals_a(2.0, 0.5, Sign.MINUS, T10)
        assert got.value == want.value

    def test_sign_specific_thresholds(self):
        with pytest.raises(DomainError):
            corollary_b_equals_a(2.0, 1.0, Sign.PLUS, T8)  # plus needs s > 2
        # minus only needs s > 1
        assert corollary_b_equals_a(2.0, 1.0, Sign.MINUS, T8).terms_used >= 1


class TestExpWeighted:
    def test_c_zero_delegates_exactly(self):
        plus = s_pm_transformed(4.0, 1.0, 1.0, 0.0, Sign.PLUS, T10)
        assert plus.value == kappa_ab_transformed(4.0, 1.0, 1.0, T10).value
        minus = s_pm_transformed(2.0, 1.0, 1.0, 0.0, Sign.MINUS, T10)
        assert minus.value == kappa_ab_alt_transformed(2.0, 1.0, 1.0, T10).value

    def test_weighted_against_integral_route(self):
        for s, a, b, c, sg in (
            (3.0, 0.5, 1.0, 0.7, Sign.PLUS),
            (2.0, 0.25, 0.5, 1.2, Sign.MINUS),
            (1.5, 1.0, 1.0, 2.0, Sign.PLUS),
        ):
            r = s_pm_transformed(s, a, b, c, sg, T10)
            qv, qe = quad_family_sum(s, a, b, c, sg)
            assert abs(r.value - qv) <= r.tail_bound + qe + 1e-12, (s, a, b, c, sg)

    @pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
    def test_floor_count_never_refuses_a_finishing_run(self, monkeypatch, sign):
        full = s_pm_transformed(3.0, 0.5, 1.0, 0.5, sign, T8, stop=StopRule.TERM_FLOOR)
        monkeypatch.setenv("ZS_TERM_BUDGET", str(full.terms_used))
        again = s_pm_transformed(3.0, 0.5, 1.0, 0.5, sign, T8, stop=StopRule.TERM_FLOOR)
        assert again == full

    def test_domain(self):
        with pytest.raises(DomainError):
            s_pm_transformed(3.0, 1.0, 1.0, -0.5, Sign.PLUS, T8)
        with pytest.raises(DomainError):
            s_pm_transformed(1.5, 1.0, 1.0, 0.0, Sign.PLUS, T8)  # c=0 plus needs s > 2
        with pytest.raises(DomainError):
            s_pm_transformed(1.0, 1.0, 1.0, 0.5, Sign.MINUS, T8)  # weighted needs s > 1


class TestTermCountEstimate:
    def test_within_factor_two_of_actual(self):
        for s, a, b in ((4.0, 0.1, 1.0), (4.0, 0.01, 1.0), (3.0, 1.0, 1.0)):
            direct = eval_direct(
                SumSpec(family=Family.GENERAL_AB, s=s, a=a, b=b, tol=T8),
                stop=StopRule.TERM_FLOOR,
            )
            est = term_count_estimate(s, a, b, T8, Method.DIRECT)
            assert est <= 2 * direct.terms_used and direct.terms_used <= 2 * est, (s, a, b)

            trans = kappa_ab_transformed(s, a, b, T8, stop=StopRule.TERM_FLOOR)
            est = term_count_estimate(s, a, b, T8, Method.TRANSFORMED)
            assert est <= 2 * trans.terms_used and trans.terms_used <= 2 * est, (s, a, b)

    def test_side_validation(self):
        with pytest.raises(DomainError):
            term_count_estimate(4.0, 0.1, 1.0, T8, Method.CLOSED_FORM)


class TestChooseMethod:
    def test_small_a_prefers_transform(self):
        sp = SumSpec(family=Family.GENERAL_AB, s=4.0, a=0.1, b=1.0, tol=T8)
        assert choose_method(sp) is Method.TRANSFORMED

    def test_large_a_prefers_direct(self):
        sp = SumSpec(family=Family.GENERAL_AB, s=4.0, a=9.0, b=1.0, tol=T8)
        assert choose_method(sp) is Method.DIRECT

    def test_tie_breaks_to_transform(self):
        # a = b = 1 makes both lattices identical, a genuine tie
        sp = SumSpec(family=Family.GENERAL_AB, s=4.0, a=1.0, b=1.0, tol=T8)
        assert choose_method(sp) is Method.TRANSFORMED

    @pytest.mark.parametrize("s", [1.3, 1.7, 2.5, 4.0])
    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-4])
    def test_one_sum_two_spellings_one_route(self, s, tol):
        # exp-weighted at c = 0 with the minus sign is general-ab-alt and runs
        # its transformation, on the 1/(2a) lattice; both count that lattice
        common = dict(s=s, a=1.0, b=1.0, tol=Tolerance(tol))
        exp = SumSpec(family=Family.EXP_WEIGHTED, c=0.0, sign=Sign.MINUS, **common)
        alt = SumSpec(family=Family.GENERAL_AB_ALT, **common)
        assert choose_method(exp) is choose_method(alt)

    def test_untransformable_family_rejected(self):
        sp = SumSpec(family=Family.KAPPA, s=4.0, tol=T8)
        with pytest.raises(DomainError):
            choose_method(sp)
        with pytest.raises(DomainError, match="spec must be a SumSpec"):
            choose_method((Family.GENERAL_AB, 4.0))


class TestCompareMethods:
    def test_report_contents(self):
        rep = compare_methods(4.0, 0.1, 1.0, T8)
        assert isinstance(rep, TransformReport)
        assert rep.agreement <= 1e-8
        assert rep.lhs_terms > rep.rhs_terms
        assert rep.speedup_estimate == rep.lhs_terms / rep.rhs_terms
        d = rep.to_json_dict()
        assert sorted(d) == [
            "agreement",
            "lhs_terms",
            "lhs_value",
            "rhs_terms",
            "rhs_value",
            "speedup_estimate",
        ]

    @pytest.mark.parametrize("kw, message", [
        (dict(agreement=-1e-9), "agreement must be >= 0"),
        (dict(lhs_terms=0), "term counts must be >= 1"),
        (dict(rhs_terms=0), "term counts must be >= 1"),
        (dict(speedup_estimate=0.0), "speedup_estimate must be positive"),
        (dict(speedup_estimate=math.nan), "speedup_estimate must be positive"),
    ])
    def test_report_validation(self, kw, message):
        fields = dict(lhs_value=1.0, rhs_value=1.0, lhs_terms=10, rhs_terms=2,
                      agreement=0.0, speedup_estimate=5.0)
        with pytest.raises(DomainError, match=message):
            TransformReport(**dict(fields, **kw))


# each route with valid arguments, and the s threshold of its family
_ROUTES = {
    "kappa_ab_transformed": (
        kappa_ab_transformed, dict(s=3.0, a=0.5, b=1.0, tol=T8, stop=StopRule.EARLIEST), 2.0,
    ),
    "kappa_ab_alt_transformed": (
        kappa_ab_alt_transformed, dict(s=3.0, a=0.5, b=1.0, tol=T8, stop=StopRule.EARLIEST), 1.0,
    ),
    "s_pm_transformed": (
        s_pm_transformed,
        dict(s=3.0, a=0.5, b=1.0, c=0.5, sign=Sign.MINUS, tol=T8, stop=StopRule.EARLIEST), 1.0,
    ),
    "corollary_b_equals_a": (
        corollary_b_equals_a, dict(s=3.0, a=0.5, sign=Sign.PLUS, tol=T8, stop=StopRule.EARLIEST),
        2.0,
    ),
    "term_count_estimate": (
        term_count_estimate, dict(s=3.0, a=0.5, b=1.0, tol=T8, side=Method.DIRECT), 2.0,
    ),
}
_BAD_INPUTS = [
    ("s", math.nan), ("s", math.inf), ("a", math.nan), ("a", -math.inf), ("b", math.inf),
    ("a", 1e-12), ("a", 0.0), ("b", 1e-12), ("b", -1.0), ("c", -0.5), ("c", 1e-12),
    ("sign", "plus"), ("tol", 1e-8), ("stop", "earliest"), ("s", "threshold"),
]


class TestRoutesValidateLikeSumSpec:
    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_valid_arguments_run(self, route):
        fn, kwargs, _ = _ROUTES[route]
        fn(**kwargs)

    @pytest.mark.parametrize("route, name, value", [
        (route, name, value)
        for route in sorted(_ROUTES)
        for name, value in _BAD_INPUTS
        if name in _ROUTES[route][1]
    ])
    def test_rejects_what_sumspec_rejects(self, route, name, value):
        fn, kwargs, threshold = _ROUTES[route]
        kwargs = dict(kwargs, **{name: threshold if value == "threshold" else value})
        with pytest.raises(DomainError):
            fn(**kwargs)


# ---------------------------------------------------------------------------
# evaluate against the explicit route each method stands for

_TRANSFORMABLE = (Family.GENERAL_AB, Family.GENERAL_AB_ALT, Family.EXP_WEIGHTED)


def _transformed(spec, stop):
    """The spec's transformation by its public name; exp-weighted at c = 0
    by the unweighted one of its sign."""
    family, args = spec.family, (spec.s, spec.a, spec.b)
    if family is Family.EXP_WEIGHTED and spec.c > 0.0:
        return s_pm_transformed(*args, spec.c, spec.sign, spec.tol, stop=stop)
    if family is Family.EXP_WEIGHTED:
        family = Family.GENERAL_AB if spec.sign is Sign.PLUS else Family.GENERAL_AB_ALT
    if family is Family.GENERAL_AB:
        return kappa_ab_transformed(*args, spec.tol, stop=stop)
    if family is Family.GENERAL_AB_ALT:
        return kappa_ab_alt_transformed(*args, spec.tol, stop=stop)
    raise DomainError(f"no transformation is available for family {spec.family.value}")


def _auto(spec, stop):
    """eval --method auto's ladder as the CLI held it before evaluate."""
    try:
        return _closed_route(spec)
    except (NoClosedFormError, DomainError):
        if spec.family in _TRANSFORMABLE and choose_method(spec) is Method.TRANSFORMED:
            return _transformed(spec, stop)
        return eval_direct(spec, stop=stop)


_EXPLICIT = {
    None: _auto,
    Method.DIRECT: lambda spec, stop: eval_direct(spec, stop=stop),
    Method.CLOSED_FORM: lambda spec, stop: _closed_route(spec),
    Method.TRANSFORMED: _transformed,
}


def _evaluate_grid():
    """Four seeded specs of each family: s up to 4 past its threshold, tol
    from 1e-15 to 1e-4, m up to 12, a from 1e-2 to 10, b from 0.1 to 3 and
    c = 0 or from 1e-2 to 2."""
    rng = random.Random(26)
    specs = []
    for family in Family:
        params = _RULES[family].params
        for _ in range(4):
            kw = {
                "m": rng.choice((0, 1, 2, 3, 7, 12)), "a": 10.0 ** rng.uniform(-2.0, 1.0),
                "b": 10.0 ** rng.uniform(-1.0, 0.5),
                "c": 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-2.0, 0.3),
                "sign": rng.choice(list(Sign)),
            }
            kw = {k: v for k, v in kw.items() if k in params}
            need = convergence_threshold(family, kw.get("m", 0), kw.get("c", 0.0),
                                         kw.get("sign", Sign.PLUS))
            s = need + 10.0 ** rng.uniform(-1.3, 0.6)
            tol = Tolerance(10.0 ** rng.uniform(-15.0, -4.0))
            specs.append(SumSpec(family, s, tol=tol, **kw))
    return specs


def _outcome(route):
    """A result in float.hex, or the refusal's type and message."""
    try:
        r = route()
    except ZetaSumsError as exc:
        return type(exc), str(exc)
    return r.value.hex(), r.terms_used, r.tail_bound.hex(), r.method


@pytest.mark.parametrize("method", [None, *Method], ids=lambda m: getattr(m, "name", "auto"))
def test_evaluate_is_the_explicit_route(method, monkeypatch):
    # the budget keeps the slow TERM_FLOOR requests short, as refusals
    monkeypatch.setenv("ZS_TERM_BUDGET", "20000")
    seen = set()
    for spec in _evaluate_grid():
        for stop in StopRule:
            got = _outcome(lambda: evaluate(spec, method=method, stop=stop))
            want = _outcome(lambda: _EXPLICIT[method](spec, stop))
            assert got == want, (spec, method, stop)
            seen.add(got[-1] if isinstance(got[-1], Method) else got[0])
    # the grid reaches every route auto picks, and refusals too
    want = {Method.CLOSED_FORM, Method.DIRECT, Method.TRANSFORMED} if method is None else {method}
    assert want <= seen and seen - want, seen


def test_evaluate_rejects_what_is_no_spec_or_method():
    with pytest.raises(DomainError, match="spec must be a SumSpec"):
        evaluate((Family.KAPPA, 3.0))
    with pytest.raises(DomainError, match="method must be a Method or None"):
        evaluate(SumSpec(Family.KAPPA, 3.0, tol=T8), method="closed")
