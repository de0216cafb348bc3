"""Every public route, on inputs of any magnitude in its domain, ends with a
certified result or a ZetaSumsError: a seeded sweep over the affine and
shifted families, whose lattices start at a drawn point, every route at
s from 1e3 to 1e308 within a stated time, and named regression inputs that
raised OverflowError or TypeError, reported the wrong threshold, or ran to
the term budget."""

import itertools
import math
import random

import pytest

import zetasums
from helpers import timed_outcome
from zetasums import (
    IDENTITY_KEYS,
    DomainError,
    Family,
    Method,
    Sign,
    StopRule,
    SumResult,
    SumSpec,
    Tolerance,
    ZetaSumsError,
    check_identity,
    choose_method,
    compare_methods,
    convergence_threshold,
    corollary_b_equals_a,
    dirichlet_eta,
    eval_direct,
    evaluate,
    hurwitz_zeta,
    kappa_ab_alt_transformed,
    kappa_ab_transformed,
    kappa_closed,
    lerch_phi,
    s_pm_transformed,
    shifted_alt_combination,
    shifted_combination,
)
from zetasums.sums import _run_series, _strip_integral

# family -> (its catalog identity, the identity's parameters)
_IDENTITY = {
    Family.SHIFTED: ("2.3", ("a",)),
    Family.SHIFTED_ALT: ("2.4", ("a",)),
    Family.GENERAL_AB: ("4.2", ("a", "b")),
    Family.GENERAL_AB_ALT: ("4.3", ("a", "b")),
    Family.EXP_WEIGHTED: ("4.4", ("a", "b", "c", "sign")),
}
_CLOSED = {Family.SHIFTED: shifted_combination, Family.SHIFTED_ALT: shifted_alt_combination}
_TRANSFORMED = {
    Family.GENERAL_AB: lambda p: kappa_ab_transformed(p["s"], p["a"], p["b"], p["tol"]),
    Family.GENERAL_AB_ALT: lambda p: kappa_ab_alt_transformed(p["s"], p["a"], p["b"], p["tol"]),
    Family.EXP_WEIGHTED: lambda p: s_pm_transformed(
        p["s"], p["a"], p["b"], p["c"], p["sign"], p["tol"]
    ),
}


def _spec(p):
    kwargs = {k: p[k] for k in _IDENTITY[p["family"]][1]}
    return SumSpec(p["family"], p["s"], tol=p["tol"], **kwargs)


def _certified(r, tol):
    assert isinstance(r, SumResult) and math.isfinite(r.value), r
    assert r.tail_bound <= tol.abs_tol, r


def _run_direct(p, rng):
    _certified(eval_direct(_spec(p)), p["tol"])


def _run_closed(p, rng):
    value, bound = _CLOSED[p["family"]](p["a"]).evaluate_with_bound(p["s"], p["tol"])
    assert math.isfinite(value) and bound <= p["tol"].abs_tol


def _run_transformed(p, rng):
    _certified(_TRANSFORMED[p["family"]](p), p["tol"])


def _run_evaluate(p, rng):
    _certified(evaluate(_spec(p)), p["tol"])


def _run_choose(p, rng):
    assert isinstance(choose_method(_spec(p)), Method)


def _run_identity(p, rng):
    key, names = _IDENTITY[p["family"]]
    rep = check_identity(key, s=p["s"], tol=p["tol"], **{k: p[k] for k in names})
    assert math.isfinite(rep.lhs_value) and math.isfinite(rep.rhs_value), rep
    # each side certifies at most the ladder's top rung, 256 tol
    assert rep.budget <= 512.0 * p["tol"].abs_tol, rep


def _run_lerch(p, rng):
    # z at or near +-1, 0 and in between; s > 0 by the Lerch kernel, s <= 0 by
    # the series route
    z = rng.choice((-1.0, 0.0, 1.0)) if rng.random() < 0.2 else (
        rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-11.0, 0.0))
    )
    s = p["s"] if rng.random() < 0.7 else -(10.0 ** rng.uniform(-3.0, 3.0))
    assert math.isfinite(lerch_phi(z, s, p["b"] if "b" in p else p["a"], p["tol"]))


def _routes(family):
    routes = [_run_direct, _run_evaluate, _run_lerch]
    if family in _CLOSED:
        routes.append(_run_closed)
    if family in _TRANSFORMED:
        routes += [_run_transformed, _run_choose]
    return routes


def _draw(rng):
    """One request: a and b from 10^-11.9 to 1e300, c = 0 or from 10^-11.9 to
    1e3, tol from 2^-52 to 1e2, and s - s_min from 1e-11 to 1, or one in forty
    s from s_min + 1 to 1e6."""
    wide = lambda lo, hi: 10.0 ** rng.uniform(lo, hi)
    family = rng.choice(list(_IDENTITY))
    p = {"family": family, "tol": Tolerance(wide(-52.0 * math.log10(2.0), 2.0))}
    for name in _IDENTITY[family][1]:
        if name == "sign":
            p[name] = rng.choice(list(Sign))
        elif name == "c":
            p[name] = 0.0 if rng.random() < 0.25 else wide(-11.9, 3.0)
        else:
            p[name] = wide(-11.9, 300.0)
    s_min = convergence_threshold(family, c=p.get("c", 0.0), sign=p.get("sign", Sign.PLUS))
    if rng.random() < 0.975:
        p["s"] = s_min + wide(-11.0, 0.0)
    else:
        p["s"] = wide(math.log10(s_min + 1.0), 6.0)
    return p


def _outcome(route, p, rng):
    """None where the route certified or refused typed, else the escape."""
    try:
        route(p, rng)
    except ZetaSumsError:
        pass
    except Exception as exc:  # the sweep reports every escape, not the first
        return f"{route.__name__} {p}: {type(exc).__name__}: {exc}"
    return None


def test_wide_magnitude_sweep_ends_certified_or_typed(monkeypatch):
    """4 000 seeded requests, one public route each, plus every route at
    s = 1e308, where the kernel's (s EPS)^2 leaves double range."""
    monkeypatch.setenv("ZS_TERM_BUDGET", "20000")
    rng = random.Random(20)
    escapes = []
    for _ in range(4000):
        p = _draw(rng)
        # an identity check runs two routes through a tolerance ladder, up to
        # ten times one route's work: one request in forty
        route = _run_identity if rng.random() < 0.025 else rng.choice(_routes(p["family"]))
        escapes.append(_outcome(route, p, rng))
    for family in _IDENTITY:
        for route in _routes(family) + [_run_identity]:
            p = dict(_draw(rng), family=family, s=1e308, a=1.0, b=1.0, c=0.5, sign=Sign.MINUS)
            escapes.append(_outcome(route, p, rng))
    escapes = [e for e in escapes if e is not None]
    assert not escapes, f"{len(escapes)} escapes, first: {escapes[:3]}"


@pytest.mark.parametrize("call, message", [
    # (s EPS)^2 in the Euler-Maclaurin walk leaves double range: at 1e308
    # too, where the split is 2
    (lambda: hurwitz_zeta(1e200, 1.0, Tolerance(1e-8)), "(n + alpha)^-s at s = 1e+200"),
    (lambda: hurwitz_zeta(1e308, 1.0, Tolerance(1e-8)), "(n + alpha)^-s at s = 1e+308"),
    (lambda: kappa_closed(1e200), "(n + alpha)^-s at s = 1e+200"),
    (lambda: check_identity("2.1", s=1e200), "(n + alpha)^-s at s = 1e+200"),
    # a strip integral's (K + x)^-s on the reciprocal lattice, 5e-9^-40: the
    # refusal names the route, not the sum's value
    (lambda: kappa_ab_alt_transformed(40.0, 1.0, 1e-8, Tolerance(1e-8)),
     "a term or tail of this transformation exceeds double range"),
], ids=["kernel-walk", "kernel-split", "closed", "identity", "series"])
def test_named_inputs_beyond_double_range_end_typed(call, message):
    with pytest.raises(DomainError, match="exceeds double range") as exc:
        call()
    assert message in str(exc.value)


_HUGE_S = (1e3, 1e6, 1e14, 1e50, 1e200, 1e308)
_HUGE_TOL = Tolerance(1e-8)
# every request at _HUGE_S ends within this, certified or typed, in the least
# of up to three runs: each takes well under a millisecond, as each kernel
# pass sums at most about 270 terms
_HUGE_S_SECONDS = 0.05


def _huge_s_requests():
    """{request: call} for every public route at each s of _HUGE_S: both
    stops, both signs, a in {0.5, 1, 2}, b in {0.5, 1}, c = 0.1, m = 1 and
    tol 1e-8, each distinct request once."""
    requests = {}
    grid = itertools.product(_HUGE_S, StopRule, Sign, (0.5, 1.0, 2.0), (0.5, 1.0))
    for s, stop, sign, a, b in grid:
        z = 0.5 if sign is Sign.PLUS else -0.5
        kwargs = {"a": a, "b": b, "c": 0.1, "sign": sign, "m": 1}
        for family in Family:
            spec = {k: kwargs[k] for k in sorted(zetasums.sums._RULES[family].params)}
            for route in (eval_direct, evaluate):
                requests[route.__name__, s, stop, family, *spec.items()] = (
                    lambda route=route, s=s, stop=stop, family=family, spec=spec:
                        route(SumSpec(family, s, tol=_HUGE_TOL, **spec), stop=stop))
        series = [
            (kappa_ab_transformed, (s, a, b, _HUGE_TOL)),
            (kappa_ab_alt_transformed, (s, a, b, _HUGE_TOL)),
            (corollary_b_equals_a, (s, a, sign, _HUGE_TOL)),
            (s_pm_transformed, (s, a, b, 0.1, sign, _HUGE_TOL)),
            (compare_methods, (s, a, b, _HUGE_TOL)),
        ]
        for call, args in series:
            requests[call.__name__, stop, *args] = (
                lambda call=call, args=args, stop=stop: call(*args, stop=stop))
        once = [
            (zetasums.kappa_closed, (s,)), (zetasums.kappa_alt_closed, (s,)),
            (zetasums.shifted_closed, (s, a)), (zetasums.shifted_alt_closed, (s, a)),
            (zetasums.moment_closed, (s, 1)), (zetasums.moment_alt_closed, (s, 1)),
            (zetasums.even_arg_moment_closed, (s, 1)),
            (hurwitz_zeta, (s, b, _HUGE_TOL)), (dirichlet_eta, (s, _HUGE_TOL)),
            (lerch_phi, (z, s, b, _HUGE_TOL)),
            (choose_method, (SumSpec(Family.GENERAL_AB, s, a=a, b=b, tol=_HUGE_TOL),)),
        ]
        for call, args in once:
            requests[(call.__name__, *args)] = lambda call=call, args=args: call(*args)
        for key in IDENTITY_KEYS:
            params = {k: kwargs[k] for k in zetasums.catalog._CATALOG[key][2]}
            requests["check_identity", key, s, *params.items()] = (
                lambda key=key, s=s, params=params: check_identity(key, s=s, **params))
    return requests


def test_huge_s_ends_certified_or_typed_in_bounded_time(monkeypatch):
    # at the default budget; a kernel pass that summed 2 ceil(s) terms took
    # seconds at s = 1e6, and s_pm_transformed's floor count was complex
    # from s = 7e13
    monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
    requests = _huge_s_requests()
    assert len(requests) > 1_000
    escapes, slow = [], []
    for request, call in requests.items():
        r, error, fast = timed_outcome(call, _HUGE_S_SECONDS)
        if error is not None and not isinstance(error, ZetaSumsError):
            escapes.append(f"{request}: {type(error).__name__}: {error}")
        elif isinstance(r, SumResult):
            _certified(r, _HUGE_TOL)
        if not fast:
            slow.append(request)
    assert not escapes, f"{len(escapes)} escapes, first: {escapes[:3]}"
    assert not slow, f"{len(slow)} past {_HUGE_S_SECONDS} s, first: {slow[:3]}"


@pytest.mark.parametrize("call", [
    # 1 - _lerch_slack(s) <= 0 from s ~ 7e13: the floor count's power of a
    # negative number was complex, a raw TypeError
    lambda: s_pm_transformed(1e14, 1.0, 1.0, 0.1, Sign.PLUS, Tolerance(1e-8),
                             stop=StopRule.TERM_FLOOR),
    lambda: s_pm_transformed(1e14, 1.0, 1.0, 0.1, Sign.MINUS, Tolerance(1e-8),
                             stop=StopRule.TERM_FLOOR),
    # (2a)^-s = 1, and a strip integral's width is inf * 0 = NaN: no refusal
    # test passed, so the series ran to the term budget
    lambda: kappa_ab_alt_transformed(1e30, 0.5, 1.0, Tolerance(1e-8)),
    lambda: kappa_ab_alt_transformed(1e30, 0.5, 1.0, Tolerance(1e-8), stop=StopRule.TERM_FLOOR),
], ids=["floor-count-plus", "floor-count-minus", "nan-width", "nan-width-floor"])
def test_huge_s_named_inputs_refuse_at_once(call, monkeypatch):
    monkeypatch.setenv("ZS_TERM_BUDGET", "200")
    _, error, fast = timed_outcome(call, 0.05)
    assert isinstance(error, DomainError) and "unattainable" in str(error), error
    assert fast


@pytest.mark.parametrize("s", [1e24 + 1.0, 1e30])
def test_strip_integral_at_huge_s_is_no_nan(s):
    # (s)_13, then (s)_11, overflows to inf while the power it multiplies
    # underflows to 0: the half-width, then the value too, was inf * 0 = NaN
    value, half = _strip_integral(s, 1.0, 0.5)
    assert math.isfinite(value) and half == math.inf


@pytest.mark.parametrize("term, tail", [
    (lambda n: (1.0, math.nan, 1.0), lambda n: (0.0, 0.0)),
    (lambda n: (1.0, 0.0, 1.0), lambda n: (0.0, math.nan)),
], ids=["nan-term-error", "nan-tail-width"])
def test_series_refuses_a_nan_charge_at_its_first_check(term, tail, monkeypatch):
    # a NaN compares false, so each refusal test is phrased to refuse on it
    monkeypatch.setenv("ZS_TERM_BUDGET", "100")
    calls = []

    def counted(n):
        calls.append(n)
        return term(n)

    with pytest.raises(DomainError, match="unattainable"):
        _run_series(counted, tail, 1e-8, StopRule.EARLIEST, Method.TRANSFORMED, None,
                    "over budget {budget}".format)
    assert len(calls) == 1
