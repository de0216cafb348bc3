"""Direct summation engine: stopping rules and certified bounds."""

import math
import random
import time
from decimal import Decimal, localcontext

import pytest

import zetasums
from helpers import benchmark_requests, decimal_hurwitz, quad_family_sum
from zetasums import (
    MIN_EXPLICIT,
    DomainError,
    Family,
    Method,
    Sign,
    StopRule,
    SumSpec,
    TermBudgetError,
    Tolerance,
    ZetaSumsError,
    check_identity,
    convergence_threshold,
    eval_direct,
    even_arg_moment_closed,
    even_arg_moment_combination,
    floor_crossing_arg,
    hurwitz_tail_bound,
    kappa_ab_alt_transformed,
    kappa_ab_transformed,
    kappa_closed,
    moment_alt_closed,
    moment_closed,
    shifted_closed,
    term_budget,
)
from zetasums.closed import shifted_combination
from zetasums.special import (
    EPS, _EM_C, _EM_MAX_ORDER, _held, _hurwitz_core, _poch_raw, _sum_terms,
)
from zetasums.sums import (
    _closed_route, _floor_count, _int_power, _lattice_order, _lattice_tail, _tail_for,
)

T8 = Tolerance(1e-8)
T10 = Tolerance(1e-10)


def spec(family, s, **kw):
    kw.setdefault("tol", T10)
    return SumSpec(family=family, s=s, **kw)


class TestSumSpecInvariants:
    def test_family_threshold_enforced(self):
        with pytest.raises(DomainError, match=r"family kappa requires s > 2, got s = 2.0"):
            spec(Family.KAPPA, 2.0)
        with pytest.raises(DomainError, match=r"requires s > 4,"):
            spec(Family.MOMENT, 4.0, m=2)  # needs s > 4
        with pytest.raises(DomainError, match=r"requires s > 1,"):
            spec(Family.GENERAL_AB_ALT, 1.0, a=1.0, b=1.0)

    @pytest.mark.parametrize("family, kw, message", [
        (Family.GENERAL_AB, dict(a=0.0, b=1.0), r"a must be > 0 \(and not within 1e-12 of 0\)"),
        (Family.GENERAL_AB, dict(a=1.0, b=-2.0), r"b must be > 0"),
        (Family.GENERAL_AB, dict(a=1e-13, b=1.0), r"a must be > 0"),
        (Family.GENERAL_AB, dict(a=math.inf, b=1.0), r"a must be finite"),
        (Family.GENERAL_AB, dict(a=1.0, b=math.nan), r"b must be finite"),
        (Family.EXP_WEIGHTED, dict(c=-0.1), r"c must be >= 0"),
        (Family.EXP_WEIGHTED, dict(c=1e-13), r"c is within 1e-12 of 0; use c = 0 exactly"),
        (Family.EXP_WEIGHTED, dict(c=math.inf), r"c must be finite"),
        (Family.EXP_WEIGHTED, dict(sign="minus"), r"sign must be a Sign"),
        (Family.MOMENT, dict(m=13), r"family moment requires integer m in \[0, 12\]"),
        (Family.MOMENT, dict(m=1.0), r"requires integer m"),
    ])
    def test_parameter_ranges(self, family, kw, message):
        with pytest.raises(DomainError, match=message):
            spec(family, 8.0, **kw)

    def test_non_finite_s_rejected(self):
        for s in (math.nan, math.inf):
            with pytest.raises(DomainError, match="s must be finite"):
                spec(Family.KAPPA, s)

    def test_m_only_for_moment_families(self):
        # kappa-alt at s = 1.5 with m = 2 would be a divergent series
        with pytest.raises(DomainError, match="moment"):
            SumSpec(family=Family.KAPPA_ALT, s=1.5, m=2)
        for fam in (Family.KAPPA, Family.SHIFTED, Family.GENERAL_AB,
                    Family.GENERAL_AB_ALT, Family.EXP_WEIGHTED):
            with pytest.raises(DomainError, match="moment"):
                spec(fam, 8.0, m=1)
        for fam in (Family.MOMENT, Family.MOMENT_ALT, Family.EVEN_ARG_MOMENT):
            assert spec(fam, 8.0, m=2).m == 2

    def test_unused_parameters_rejected(self):
        # each family takes only the parameters it reads; the error names
        # the families that do take the one given
        cases = [
            (Family.GENERAL_AB, dict(a=0.5, c=0.7), "exp-weighted"),
            (Family.GENERAL_AB_ALT, dict(sign=Sign.MINUS), "exp-weighted"),
            (Family.SHIFTED, dict(a=0.5, b=2.0), "general-ab, general-ab-alt"),
            (Family.KAPPA, dict(a=0.5), "shifted, shifted-alt"),
            (Family.MOMENT, dict(m=1, b=0.5), "general-ab"),
        ]
        for fam, kw, users in cases:
            with pytest.raises(DomainError, match=users):
                spec(fam, 8.0, **kw)
        # defaults are accepted on every family, and used fields everywhere
        assert spec(Family.KAPPA, 3.0, a=1.0, b=1.0, c=0.0, sign=Sign.PLUS).a == 1.0
        assert spec(Family.EXP_WEIGHTED, 3.0, a=0.5, b=2.0, c=0.7, sign=Sign.MINUS).c == 0.7

    def test_tolerance_required(self):
        with pytest.raises(DomainError, match="tol must be a Tolerance"):
            SumSpec(family=Family.KAPPA, s=3.0, tol=1e-8)
        # a tuple with a Tolerance's fields is not a Tolerance
        with pytest.raises(DomainError, match="tol must be a Tolerance"):
            SumSpec(family=Family.KAPPA, s=3.0, tol=(1e-8,))
        with pytest.raises(DomainError, match=r"abs_tol must be at least 2\^-52"):
            Tolerance(0.0)
        with pytest.raises(DomainError, match=r"abs_tol must be at least 2\^-52"):
            Tolerance(-1e-8)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="abs_tol must be finite"):
                Tolerance(bad)
        assert Tolerance(2.0 ** -52).abs_tol == 2.0 ** -52

    def test_family_and_spec_types_required(self):
        with pytest.raises(DomainError, match="family must be a Family"):
            SumSpec(family="kappa", s=3.0)
        with pytest.raises(DomainError, match="unknown family"):
            convergence_threshold("kappa")
        with pytest.raises(DomainError, match="spec must be a SumSpec"):
            eval_direct((Family.KAPPA, 3.0))

    def test_threshold_table(self):
        assert convergence_threshold(Family.KAPPA) == 2.0
        assert convergence_threshold(Family.KAPPA_ALT) == 1.0
        assert convergence_threshold(Family.MOMENT, m=2) == 4.0
        assert convergence_threshold(Family.MOMENT_ALT, m=1) == 2.0
        assert convergence_threshold(Family.EVEN_ARG_MOMENT, m=1) == 3.0
        assert convergence_threshold(Family.GENERAL_AB) == 2.0
        assert convergence_threshold(Family.GENERAL_AB_ALT) == 1.0
        assert convergence_threshold(Family.EXP_WEIGHTED, c=0.7) == 1.0


class TestEvalDirectValues:
    def test_alternating_kappa_reference(self):
        r = eval_direct(spec(Family.KAPPA_ALT, 2.0))
        assert math.isclose(r.value, 1.2337005501361697, rel_tol=1e-12)
        assert r.method is Method.DIRECT
        assert r.terms_used >= 1

    def test_matches_closed_forms(self):
        cases = [
            (spec(Family.KAPPA, 4.0), kappa_closed(4.0)),
            (spec(Family.SHIFTED, 3.5, a=2.25), shifted_closed(3.5, 2.25)),
            (spec(Family.MOMENT, 5.0, m=1), moment_closed(5.0, 1)),
            (spec(Family.MOMENT_ALT, 5.0, m=2), moment_alt_closed(5.0, 2)),
            (spec(Family.EVEN_ARG_MOMENT, 4.0, m=1), even_arg_moment_closed(4.0, 1)),
        ]
        for sp, want in cases:
            r = eval_direct(sp)
            assert abs(r.value - want) <= r.tail_bound + 1e-12, sp.family

    def test_kappa_rows_are_the_moment_rows_at_m_zero(self):
        for kappa, moment, s in ((Family.KAPPA, Family.MOMENT, 3.5),
                                 (Family.KAPPA_ALT, Family.MOMENT_ALT, 1.5)):
            for tol in (Tolerance(1e-6), Tolerance(1e-13)):
                for route in (eval_direct, _closed_route):
                    got = route(SumSpec(kappa, s, tol=tol))
                    want = route(SumSpec(moment, s, m=0, tol=tol))
                    assert got == want, (kappa, tol, route)
                    assert got.value.hex() == want.value.hex()

    def test_matches_integral_route(self):
        cases = [
            (spec(Family.GENERAL_AB, 3.0, a=2.5, b=0.7), (3.0, 2.5, 0.7, 0.0, Sign.PLUS)),
            (spec(Family.GENERAL_AB_ALT, 2.0, a=1.0, b=1.0), (2.0, 1.0, 1.0, 0.0, Sign.MINUS)),
            (
                spec(Family.EXP_WEIGHTED, 3.0, a=0.5, b=1.0, c=0.7, sign=Sign.PLUS),
                (3.0, 0.5, 1.0, 0.7, Sign.PLUS),
            ),
        ]
        for sp, qargs in cases:
            r = eval_direct(sp)
            qv, qe = quad_family_sum(*qargs)
            assert abs(r.value - qv) <= r.tail_bound + qe + 1e-12, sp.family

    def test_tail_bound_within_request(self):
        r = eval_direct(spec(Family.GENERAL_AB, 4.0, a=0.5, b=1.0, tol=T8))
        assert r.tail_bound <= 1e-8


class TestStoppingRules:
    def test_floor_rule_never_stops_earlier(self):
        for fam, kw in [
            (Family.KAPPA, dict(s=4.0)),
            (Family.GENERAL_AB, dict(s=4.0, a=0.5, b=1.0)),
            (Family.GENERAL_AB_ALT, dict(s=4.0, a=1.0, b=1.0)),
        ]:
            early = eval_direct(spec(fam, tol=T8, **kw), stop=StopRule.EARLIEST)
            floor = eval_direct(spec(fam, tol=T8, **kw), stop=StopRule.TERM_FLOOR)
            assert floor.terms_used >= early.terms_used, fam
            assert abs(floor.value - early.value) <= floor.tail_bound + early.tail_bound

    def test_floor_crossing_brackets_ten_tol(self):
        for s, tol in ((4.0, 1e-8), (2.5, 1e-10), (7.0, 1e-6)):
            a_star = floor_crossing_arg(s, tol)
            assert hurwitz_tail_bound(s, 1.2 * a_star) <= 10.0 * tol
            assert hurwitz_tail_bound(s, 0.8 * a_star) >= 10.0 * tol

    def test_budget_exhaustion_raises(self, monkeypatch):
        # at a = 3 the lattice tail's envelope fits tol only from term 16 on,
        # so the check at term 1 fails and the budget ends before the next
        monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        sp = spec(Family.GENERAL_AB, 2.5, a=3.0, b=1.0, tol=T8)
        assert eval_direct(sp).terms_used == MIN_EXPLICIT
        monkeypatch.setenv("ZS_TERM_BUDGET", "3")
        assert term_budget() == 3
        with pytest.raises(TermBudgetError):
            eval_direct(sp)

    def test_floor_count_past_budget_fails_at_once(self, monkeypatch):
        # the floor sits ~4e14 terms out, so the default budget cannot reach it
        monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        t0 = time.perf_counter()
        with pytest.raises(TermBudgetError, match="kappa-alt exceeded the term budget"):
            eval_direct(spec(Family.KAPPA_ALT, 1.5, tol=T8), stop=StopRule.TERM_FLOOR)
        assert time.perf_counter() - t0 < 1.0

    _DIRECT_OVER = ("direct evaluation of {} exceeded the term budget (20000); "
                    "a transformed or closed route may be cheaper").format
    _TRANSFORMED_OVER = ("transformed evaluation exceeded the term budget (20000); "
                         "direct evaluation may suit these parameters better")
    # route -> (its run at tol and stop, s, its floor count at tol, the
    # lattice (x0, h) of its bare zeta probe, its TermBudgetError message)
    _BOUNDARY_ROUTES = {
        "kappa-alt": (
            lambda tol, stop: eval_direct(spec(Family.KAPPA_ALT, 2.0, tol=tol), stop=stop),
            2.0, lambda tol: _floor_count(spec(Family.KAPPA_ALT, 2.0, tol=tol)), (1.0, 1.0),
            _DIRECT_OVER("kappa-alt"),
        ),
        "shifted-alt": (
            lambda tol, stop: eval_direct(
                spec(Family.SHIFTED_ALT, 2.0, a=0.3, tol=tol), stop=stop),
            2.0, lambda tol: _floor_count(spec(Family.SHIFTED_ALT, 2.0, a=0.3, tol=tol)),
            (0.3, 1.0), _DIRECT_OVER("shifted-alt"),
        ),
        "general-ab transformed": (
            lambda tol, stop: kappa_ab_transformed(3.0, 0.5, 1.0, tol, stop=stop),
            3.0, lambda tol: _floor_count(
                spec(Family.GENERAL_AB, 3.0, a=0.5, b=1.0, tol=tol), 1.0), (2.0, 2.0),
            _TRANSFORMED_OVER,
        ),
        "general-ab-alt transformed": (
            lambda tol, stop: kappa_ab_alt_transformed(2.0, 0.5, 1.5, tol, stop=stop),
            2.0, lambda tol: _floor_count(
                spec(Family.GENERAL_AB_ALT, 2.0, a=0.5, b=1.5, tol=tol), 2.0), (1.5, 1.0),
            _TRANSFORMED_OVER,
        ),
    }

    @pytest.mark.parametrize("route", sorted(_BOUNDARY_ROUTES))
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_floor_count_at_the_budget_fails_after_one_term(self, monkeypatch, route, past):
        # a floor count of budget + past, with the crossing x* placed 1.1
        # steps before the point of term budget + past: term budget - 1 lies
        # 0.9 steps before x* at past = 1, and 0.1 steps past it at past = 0,
        # where zeta's x^-s/2 above x^(1-s)/(s - 1) keeps its probe above
        # the floor.  Both fail up front after that one term, with the
        # message they always gave.  A count one below the budget runs as
        # it always did, to a certified end past the crossing
        import zetasums.sums as sums
        import zetasums.transforms as transforms

        budget = 20000
        monkeypatch.setenv("ZS_TERM_BUDGET", str(budget))
        run, s, count, (x0, h), message = self._BOUNDARY_ROUTES[route]
        x_star = x0 + h * (budget + past - 1.1)
        tol = Tolerance(x_star ** (1.0 - s) / (10.0 * (s - 1.0)))
        assert count(tol) == budget + past
        calls = []
        for module in (sums, transforms):
            kernel = module._hurwitz_core
            monkeypatch.setattr(module, "_hurwitz_core",
                                lambda *args, k=kernel: (calls.append(args), k(*args))[1])
        if past < 0:
            r = run(tol, StopRule.TERM_FLOOR)
            assert budget + past <= r.terms_used == len(calls) <= budget
            assert r.tail_bound <= tol.abs_tol
            return
        with pytest.raises(TermBudgetError) as exc:
            run(tol, StopRule.TERM_FLOOR)
        assert str(exc.value) == message
        assert len(calls) == 1

    def test_floor_count_never_refuses_a_finishing_run(self, monkeypatch):
        sp = spec(Family.GENERAL_AB, 4.0, a=0.1, b=1.0, tol=T8)
        full = eval_direct(sp, stop=StopRule.TERM_FLOOR)
        monkeypatch.setenv("ZS_TERM_BUDGET", str(full.terms_used))
        assert eval_direct(sp, stop=StopRule.TERM_FLOOR) == full

    def test_budget_env_override_roundtrip(self, monkeypatch):
        monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        default = term_budget()
        monkeypatch.setenv("ZS_TERM_BUDGET", "12345")
        assert term_budget() == 12345
        monkeypatch.delenv("ZS_TERM_BUDGET")
        assert term_budget() == default

    @pytest.mark.parametrize("raw, match", [("abc", "must be an integer"), ("0", ">= 1")])
    def test_budget_env_rejects_bad_values(self, monkeypatch, raw, match):
        monkeypatch.setenv("ZS_TERM_BUDGET", raw)
        with pytest.raises(DomainError, match=match):
            term_budget()


class TestHeldRecord:
    """Only a TERM_FLOOR loop predicted past MIN_EXPLICIT terms builds the
    kernel's per-exponent record: it pays from about three calls on, and
    most EARLIEST runs end at term 1."""

    @staticmethod
    def _count(monkeypatch):
        import zetasums.sums as sums

        built, calls = [], []
        held, kernel = sums._held, sums._hurwitz_core
        monkeypatch.setattr(sums, "_held", lambda s: (built.append(s), held(s))[1])
        monkeypatch.setattr(sums, "_hurwitz_core",
                            lambda *args: (calls.append(args), kernel(*args))[1])
        return built, calls

    def test_a_long_term_floor_loop_builds_one(self, monkeypatch):
        built, calls = self._count(monkeypatch)
        workload, (request,) = benchmark_requests("route-compare", 1, 1)
        direct, _ = workload.call(zetasums, request)
        assert built == [request["s"]]
        assert direct.terms_used == len(calls) > MIN_EXPLICIT
        assert all(held is calls[0][2] is not None for _, _, held in calls)

    def test_a_short_term_floor_loop_builds_none(self, monkeypatch):
        built, calls = self._count(monkeypatch)
        sp = spec(Family.GENERAL_AB, 3.0, a=1.0, b=1.0, tol=Tolerance(1e-3))
        assert _floor_count(sp) <= MIN_EXPLICIT
        eval_direct(sp, stop=StopRule.TERM_FLOOR)
        assert built == [] and calls and all(held is None for _, _, held in calls)

    def test_identity_requests_build_none(self, monkeypatch):
        built, calls = self._count(monkeypatch)
        workload, requests = benchmark_requests("identity-mixed", 1, 200)
        for request in requests:
            try:
                workload.call(zetasums, request)
            except ZetaSumsError:
                pass
        assert built == [] and len(calls) > 200

    def test_an_exponent_past_the_record_refuses_as_before(self):
        # (s EPS)^2 overflows, so no record: the kernel's own pass refuses
        assert _held(1e200) is None
        sp = spec(Family.GENERAL_AB, 1e200, a=1e-6, b=0.5, tol=T8)
        with pytest.raises(DomainError, match="exceeds double range"):
            eval_direct(sp, stop=StopRule.TERM_FLOOR)


class TestFirstCheck:
    @pytest.mark.parametrize("method, stop, crossing, want", [
        # the direct route checks once at term 1, then every 8 terms from 16
        (Method.DIRECT, StopRule.EARLIEST, 0, [1, 16, 24, 32, 40, 48, 56, 64, 72, 81]),
        # TERM_FLOOR starts where the probe crosses 10 tol, never before 16
        (Method.DIRECT, StopRule.TERM_FLOOR, 0, [16, 24, 32, 40, 48, 56, 64, 72, 81, 91]),
        (Method.DIRECT, StopRule.TERM_FLOOR, 20, [20, 28, 36, 44, 52, 60, 68, 76, 85, 95]),
        # transformations check after every term until the gaps reach n/8
        (Method.TRANSFORMED, StopRule.EARLIEST, 0, list(range(1, 17)) + [18, 20]),
    ])
    def test_check_schedule(self, monkeypatch, method, stop, crossing, want):
        # a tail that never fits and never probes (infinite width): the loop
        # checks on its schedule until the budget ends it
        from zetasums.sums import _run_series

        monkeypatch.setenv("ZS_TERM_BUDGET", "100")
        checks = []

        def tail(n):
            checks.append(n)
            return 0.0, math.inf

        with pytest.raises(TermBudgetError, match="over budget"):
            _run_series(lambda n: (0.0, 0.0, 100.0 if n + 1 < crossing else 0.0), tail, 1.0,
                        stop, method, None, "over budget".format)
        assert checks[:len(want)] == want

    def test_half_tol_refusal_waits_for_the_regular_schedule(self, monkeypatch):
        # the first term alone charges about 1.4e-9, more than half of every
        # ladder rung's tol: refused at term 1 by the 0.5 tol rule, the shifted
        # sum would fail; its check at term 1 fits on the last rung
        monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        assert check_identity("2.3", s=6.376871133776569, a=0.10707628641657692,
                              tol=Tolerance(1.0270408662223447e-11)).passed

    @pytest.mark.parametrize("method", [Method.DIRECT, Method.TRANSFORMED])
    def test_hopeless_check_skips_the_tail(self, monkeypatch, method):
        # the first term's own charge, 2, already exceeds tol = 1: no check
        # can fit, so the first one refuses without the tail or the probe,
        # also under a budget that ends before MIN_EXPLICIT
        from zetasums.sums import _run_series

        def tail(n):
            raise AssertionError(f"tail({n}) evaluated")

        for budget in ("8", "1000"):
            monkeypatch.setenv("ZS_TERM_BUDGET", budget)
            terms = []
            with pytest.raises(DomainError, match="unattainable"):
                _run_series(lambda n: (terms.append(n), (1.0, 2.0, 1.0))[1], tail, 1.0,
                            StopRule.EARLIEST, method, None, "over budget".format)
            assert terms == [0]

    def test_capped_lattice_check_makes_no_kernel_call(self, monkeypatch):
        # general-ab at a = 3: the tail's envelope past term 1 exceeds tol, so
        # the check returns (0, inf) without evaluating a zeta piece; past 16
        # it fits and evaluates its pieces
        import zetasums.special as special
        from zetasums.sums import _affine_tail

        sp = spec(Family.GENERAL_AB, 2.5, a=3.0, b=1.0, tol=T8)
        assert _lattice_order(sp.s, sp.a + sp.b, sp.a)[1] > sp.tol.abs_tol
        kernel, calls = special._hurwitz_core, []
        monkeypatch.setattr(special, "_hurwitz_core",
                            lambda *args: (calls.append(args), kernel(*args))[1])
        assert _affine_tail(sp, 1, 0.45 * sp.tol.abs_tol) == (0.0, math.inf)
        assert calls == []
        mid, wid = _affine_tail(sp, MIN_EXPLICIT, 0.45 * sp.tol.abs_tol)
        assert wid <= sp.tol.abs_tol and len(calls) >= 2

    def test_direct_results_keep_an_explicit_term(self):
        # check_identity compares the direct route with the closed form: a
        # direct result of no explicit term would be the closed form itself
        from zetasums.sums import _RULES

        rng = random.Random(20261019)
        at_first = 0
        for _ in range(60):
            family = rng.choice(list(Family))
            kw = dict(m=rng.randrange(1, 3), a=rng.uniform(0.05, 3.0), b=rng.uniform(0.3, 3.0),
                      c=rng.uniform(0.01, 2.0), sign=rng.choice(list(Sign)))
            kw = {k: v for k, v in kw.items() if k in _RULES[family].params}
            s = convergence_threshold(family, kw.get("m", 0), kw.get("c", 0.0),
                                      kw.get("sign", Sign.PLUS)) + rng.uniform(0.5, 6.0)
            tol = Tolerance(10.0 ** rng.uniform(-12.0, -4.0))
            try:
                r = eval_direct(spec(family, s, tol=tol, **kw))
            except (DomainError, TermBudgetError):
                continue
            assert r.terms_used >= 1, (family, s, kw, tol)
            at_first += r.terms_used == 1
        assert at_first >= 10  # the check at term 1 is exercised


class TestFarProbe:
    """The series driver refuses at once a request whose tail, probed at the
    term budget, is still wider than tol, on every route."""

    def test_kappa_rounding_floor_fails_at_once(self, monkeypatch):
        # the tail falls like n^(2-s): its width at n = 1e7 is still 2.5e-14
        monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="unattainable"):
            eval_direct(spec(Family.KAPPA, 2.0245, tol=Tolerance(2.3e-14)))
        assert time.perf_counter() - t0 < 1.0
        t0 = time.perf_counter()
        assert check_identity("2.1", s=2.0245, tol=Tolerance(2.3e-14)).passed
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("run, seconds", [
        (lambda: eval_direct(spec(Family.SHIFTED, 2.01099, a=3.245, tol=Tolerance(1.42e-13))),
         1.0),
        # refused after ~3e5 terms, 0.7-0.9 s on a 2-vCPU host
        (lambda: kappa_ab_transformed(2.011507, 1.736, 0.7922, Tolerance(8.09e-14)), 2.0),
    ], ids=["shifted", "kappa_ab_transformed"])
    def test_terms_charges_plus_far_part_fail_at_once(self, monkeypatch, run, seconds):
        # the tail's own part at n = 1e7 fits tol (1.34e-13 < 1.42e-13 and
        # 7.85e-14 < 8.09e-14); the terms' charges push the total over.  Both
        # ground to a TermBudgetError for 12 s or more
        monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="unattainable"):
            run()
        assert time.perf_counter() - t0 < seconds

    def test_identity_ladder_relaxes_past_the_shifted_floor(self, monkeypatch):
        monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        t0 = time.perf_counter()
        assert check_identity("2.3", s=2.01099, a=3.245, tol=Tolerance(1.42e-13)).passed
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("far", [0.5, 2.0])
    def test_probes_once_and_only_a_finite_floor(self, monkeypatch, far):
        # a tail the loop skips (infinite width) for n < 5, then one whose own
        # part, 2.0, misses tol = 1 until n = 50; at n = budget it is far
        from zetasums.sums import _run_series

        monkeypatch.setenv("ZS_TERM_BUDGET", "1000")
        calls = []

        def tail(n):
            calls.append(n)
            return 0.0, math.inf if n < 5 else far if n == 1000 else 2.0 if n < 50 else 0.5

        def series():
            return _run_series(lambda n: (0.0, 0.0, 1.0), tail, 1.0, StopRule.EARLIEST,
                               Method.TRANSFORMED, None, "over budget".format)

        if far > 1.0:
            with pytest.raises(DomainError, match="unattainable"):
                series()
            assert calls == [1, 2, 3, 4, 5, 1000]
        else:
            assert series().terms_used == 51  # the first check past 50: gaps of n/8
            assert calls[:7] == [1, 2, 3, 4, 5, 1000, 6] and calls.count(1000) == 1

    def test_never_refuses_a_finishing_run(self, monkeypatch):
        # every family direct and kappa_ab_transformed, both stop rules: a run
        # that ends ok in T terms at a budget of 20 000 ends the same at T.
        # Half the direct points take tol between the tail's own part at
        # n = 20 000 and at the first check, where the probe fires
        import zetasums.sums as sums

        tail_for, calls = sums._tail_for, []
        monkeypatch.setattr(sums, "_tail_for",
                            lambda sp, n, budget: (calls.append(n), tail_for(sp, n, budget))[1])
        rng = random.Random(20261018)

        def log_uniform(lo, hi):
            return lo * (hi / lo) ** rng.random()

        def own(sp, n):
            mid, wid = tail_for(sp, n, 1e-300)  # the tail at its rounding floor
            return wid + 4.0 * EPS * abs(mid)

        probed = 0
        for _ in range(200):
            gap, tol = log_uniform(1e-3, 8.0), Tolerance(log_uniform(1e-14, 1e-4))
            stop = rng.choice(list(StopRule))
            a, b = log_uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            family = rng.choice(list(Family) + [None])
            if family is None:
                point = (2.0 + gap, a, b, tol)
                run = lambda: kappa_ab_transformed(*point, stop=stop)
            else:
                kw = dict(m=rng.randrange(1, 3), a=a, b=b, c=log_uniform(1e-3, 2.0),
                          sign=rng.choice(list(Sign)))
                kw = {k: v for k, v in kw.items() if k in sums._RULES[family].params}
                s = convergence_threshold(family, kw.get("m", 0), kw.get("c", 0.0),
                                          kw.get("sign", Sign.PLUS)) + gap
                point = spec(family, s, tol=tol, **kw)
                lo, hi = own(point, 20000), own(point, MIN_EXPLICIT)
                if rng.random() < 0.5 and max(lo, 2.0 ** -52) < hi < math.inf:
                    stop = StopRule.EARLIEST
                    point = spec(family, s, tol=Tolerance(log_uniform(max(lo, 2.0 ** -52), hi)),
                                 **kw)
                run = lambda: eval_direct(point, stop=stop)
            monkeypatch.setenv("ZS_TERM_BUDGET", "20000")
            calls.clear()
            try:
                first = run()
            except (DomainError, TermBudgetError):
                continue
            probed += 20000 in calls[:-1]
            monkeypatch.setenv("ZS_TERM_BUDGET", str(first.terms_used))
            assert run() == first, (point, stop)
        assert probed >= 5


class TestTailBoundHonesty:
    def test_refined_run_stays_inside_coarse_bound(self):
        cases = [
            spec(Family.KAPPA, 3.0, tol=T8),
            spec(Family.KAPPA_ALT, 1.5, tol=T8),
            spec(Family.MOMENT, 6.5, m=3, tol=T8),
            spec(Family.GENERAL_AB, 4.0, a=0.1, b=1.0, tol=T8),
            spec(Family.EXP_WEIGHTED, 2.0, a=1.0, b=0.5, c=1.0, sign=Sign.MINUS, tol=T8),
        ]
        for sp in cases:
            coarse = eval_direct(sp)
            fine = eval_direct(
                SumSpec(
                    family=sp.family, s=sp.s, m=sp.m, a=sp.a, b=sp.b, c=sp.c,
                    sign=sp.sign, tol=Tolerance(sp.tol.abs_tol / 100.0),
                )
            )
            assert abs(coarse.value - fine.value) <= coarse.tail_bound, sp.family

    def test_capped_lattice_tail_skips_only_hopeless_checks(self):
        # the reciprocal-lattice tail of kappa_ab_transformed at random points:
        # the cap gives (0, inf) exactly when the envelope exceeds it, which
        # the full half-width would too, and otherwise changes nothing
        rng = random.Random(20261018)
        for _ in range(200):
            s = rng.uniform(2.05, 8.0)
            a = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
            A, h = (rng.randrange(40) + rng.uniform(0.3, 3.0)) / a, 1.0 / a
            env = _lattice_order(s, A, h)[1]
            plain = _lattice_tail(s, A, h)
            assert plain[1] >= env
            for cap in (env, math.nextafter(env, 0.0), math.nextafter(env, math.inf),
                        env * rng.uniform(0.1, 10.0)):
                got = _lattice_tail(s, A, h, cap)
                assert got == ((0.0, math.inf) if env > cap else plain), (s, A, h, cap)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("gap", [1e-3, 0.1, 2.0, 8.0])
    def test_even_argument_tail_against_decimal(self, m, gap):
        # sum(k^m zeta(s, 2k), k > K) at 60 digits: the closed form's zeta
        # values in decimal, minus the first K terms, zeta(s, 2k + 2) =
        # zeta(s, 2k) - (2k)^-s - (2k+1)^-s stepped from zeta(s, 2)
        mpmath = pytest.importorskip("mpmath")
        s = m + 2.0 + gap
        sp = spec(Family.EVEN_ARG_MOMENT, s, m=m)
        with mpmath.workdps(60):
            S = mpmath.mpf(s)

            def zeta(x, alpha):
                return mpmath.mpf(str(decimal_hurwitz(x, alpha)))

            rest = mpmath.mpf(0)
            for t in even_arg_moment_combination(m).terms:
                weight = mpmath.mpf(t.coefficient.numerator) / t.coefficient.denominator
                if t.two_pow_neg_s:
                    weight *= 2 ** -S
                rest += weight * zeta(s - t.s_shift, t.alpha or 1.0)
            z = zeta(s, 2.0)
            for k in range(1, 1001):
                rest -= mpmath.mpf(k) ** m * z
                z -= mpmath.mpf(2 * k) ** -S + mpmath.mpf(2 * k + 1) ** -S
                if k in (16, 40, 1000):
                    mid, wid = _tail_for(sp, k, 1e-300)
                    assert abs(mid - rest) <= wid, (k, float(rest))

    def test_thin_strip_power_integral(self):
        # the strip integrals under the alternating tails take log(y/x) of a
        # thin strip; formed from a rounded y / x it lost ~700 ulps here
        K, A, h = 24, 2.282, 0.03742738339950363
        with localcontext() as ctx:
            ctx.prec = 50
            for p in (-1.0289991453508365, -0.0289991453508365, -1.0, -4.03):
                q = Decimal(p) + 1
                x = Decimal(K + A)  # the rounded left end is the strip's start
                exact = ((x + Decimal(h)) ** q - x ** q) / q if q else (1 + Decimal(h) / x).ln()
                got = _int_power(K, A, h, p)
                assert abs(Decimal(got) - exact) <= Decimal(4 * EPS) * abs(exact), p

    def test_alternating_affine_tail_encloses_near_pole(self):
        # identity 4.3 at s - 1 = 0.029: both routes missed the reference by
        # 1.5-2x their bounds, from the paired strip tail
        s, a, b = 1.0289991453508365, 0.03742738339950363, 1.6837965462797502
        # (1/Gamma(s)) * integral of x^(s-1) e^(-bx) / ((1 - e^-x)(1 + e^-ax)),
        # by mpmath quadrature after x = u^(1/(s-1)), at 30 and 45 digits
        ref = 17.151455984738707
        tol = Tolerance(5.568985879011138e-11)
        direct = eval_direct(spec(Family.GENERAL_AB_ALT, s, a=a, b=b, tol=tol))
        trans = kappa_ab_alt_transformed(s, a, b, tol)
        for r in (direct, trans):
            assert abs(r.value - ref) <= r.tail_bound, r.method


def _two_pass_lattice_tail(s, A, h, cap=math.inf):
    """_lattice_tail away from unit spacing as it was written before its
    one-pass order choice: the reference the one pass must match bit for bit."""
    best_j, best_env = _two_pass_lattice_order(s, A, h)
    if best_env > cap:
        return 0.0, math.inf
    terms = [(1.0 / (h * (s - 1.0)), 1, A, False), (0.5, 0, A, False)]
    for r in range(1, best_j + 1):
        wr = _EM_C[r] * h ** (2 * r - 1) * _poch_raw(s, 2 * r - 1)
        terms.append((wr, 1 - 2 * r, A, False))
    return _sum_terms(s, terms, best_env)


def _two_pass_lattice_order(s, A, h):
    best_j, best_env = 0, None
    for j in range(_EM_MAX_ORDER + 1):
        try:
            hp = h ** (2 * j + 1)
        except OverflowError:
            break
        env = (abs(_EM_C[j + 1]) * hp * _poch_raw(s, 2 * j + 1)
               * hurwitz_tail_bound(s + 2 * j + 1, A))
        if best_env is None or env < best_env:
            best_j, best_env = j, env
    return best_j, best_env


def _bits(tail, *args):
    """A tail's (value, width) in float.hex, or the error it raised."""
    try:
        return tuple(map(float.hex, tail(*args)))
    except DomainError as exc:
        return str(exc)


class TestLatticeTail:
    @pytest.mark.parametrize("s", [2.001, 2.5, 3.0, 6.0, 20.0])
    @pytest.mark.parametrize("a", [0.125, 0.5, 1.0, 2.0, 3.375])
    def test_unit_spacing_tails_differ_by_one_term(self, s, a):
        # T(K) - T(K + 1) is zeta(s, K + a): this grades the exact tail at
        # every K on its own (K + a is exact for these a)
        for K in (0, 1, 2, 5, 16):
            hi, hi_err = _lattice_tail(s, K + a, 1.0)
            lo, lo_err = _lattice_tail(s, K + 1 + a, 1.0)
            v, b = _hurwitz_core(s, K + a)
            gap = math.fsum([hi, -lo, -v])
            assert abs(gap) <= hi_err + lo_err + b, (K, gap)

    def test_unit_spacing_tail_at_zero_is_the_closed_form(self):
        # at K = 0 the exact tail is shifted_combination(a), bit for bit, so
        # check_identity("2.3") compares one explicit term plus the tail at
        # K = 1 with it
        rng = random.Random(20261019)
        loose = Tolerance(1e300)
        for _ in range(300):
            s, a = 2.0 + 10.0 ** rng.uniform(-3.0, 1.3), 10.0 ** rng.uniform(-1.0, 1.0)
            for a in (a, 1.0):
                got = _lattice_tail(s, a, 1.0, cap=0.0)  # never capped
                want = shifted_combination(a).evaluate_with_bound(s, loose)
                assert tuple(map(float.hex, got)) == tuple(map(float.hex, want)), (s, a)

    @pytest.mark.parametrize("s, a", [(3.0, 0.5), (4.0, 0.25), (2.5, 2.0)])
    def test_shifted_certifies_at_the_first_term(self, s, a):
        # the Euler-Maclaurin tail fitted tol 1e-10 only from term 16 on
        r = eval_direct(spec(Family.SHIFTED, s, a=a))
        assert r.terms_used == 1
        assert abs(r.value - shifted_closed(s, a)) <= r.tail_bound + 1e-12

    def test_one_pass_matches_the_two_pass_code(self):
        # 20 000 random (s, A, h, cap): h up to 10^1.5, and past 10^12, where
        # h^(2j+1) leaves double range and the orders stop; A up to 1e12,
        # where the tail bounds underflow, and at s > 300 down to 1e-3,
        # where they overflow.  Every fourth point sums the tail as well
        rng = random.Random(20261020)
        seen = set()
        for i in range(20000):
            s = 2.0 + 10.0 ** rng.uniform(-6.0, 1.7 if i % 50 else 2.6)
            A = 10.0 ** rng.uniform(-3.0, 12.0)
            h = 10.0 ** (rng.uniform(-3.0, 1.5) if i % 100 else rng.uniform(12.0, 20.0))
            cap = 10.0 ** rng.uniform(-300.0, 2.0) if rng.random() < 0.5 else math.inf
            j, env = _two_pass_lattice_order(s, A, h)
            order, envelope, weights = _lattice_order(s, A, h)
            assert (order, envelope.hex()) == (j, env.hex()), (s, A, h)
            assert len(weights) == order
            if i % 4 == 0:
                args = (s, A, h, cap)
                assert _bits(_lattice_tail, *args) == _bits(_two_pass_lattice_tail, *args), args
            seen.add("capped" if env > cap else "fits")
            t = s + 2 * _EM_MAX_ORDER + 1  # the last order's tail bound
            try:
                seen.add("underflow" if A ** (1.0 - t) / (t - 1.0) < 2.0 ** -1022 else "normal")
            except OverflowError:
                seen.add("overflow")
            try:
                h ** (2 * _EM_MAX_ORDER + 1)
            except OverflowError:
                seen.add("orders stop")
        assert seen == {"capped", "fits", "underflow", "normal", "overflow", "orders stop"}
