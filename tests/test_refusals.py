"""Every public route, on inputs of any magnitude in its domain, ends with a
certified result or a ZetaSumsError: a seeded sweep over the affine and
shifted families, whose lattices start at a drawn point, and named
regression inputs that raised OverflowError or reported the wrong
threshold."""

import math
import random

import pytest

from zetasums import (
    DomainError,
    Family,
    Method,
    Sign,
    SumResult,
    SumSpec,
    Tolerance,
    ZetaSumsError,
    check_identity,
    choose_method,
    convergence_threshold,
    eval_direct,
    hurwitz_zeta,
    kappa_ab_alt_transformed,
    kappa_ab_transformed,
    kappa_closed,
    lerch_phi,
    s_pm_transformed,
    shifted_alt_combination,
    shifted_combination,
)

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
    routes = [_run_direct, _run_lerch]
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
    s = 1e308, where the kernel's split point leaves double range."""
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
    # (s EPS)^2 in the Euler-Maclaurin walk, and 2 ceil(s) - alpha, leave
    # double range
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

