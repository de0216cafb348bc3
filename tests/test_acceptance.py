"""Acceptance gate: eight numbered criteria, one pass/fail line each.

Each criterion is a single test function; the pytest -v report line for the
function is the criterion's pass/fail line.  Thresholds are stated inline
and are absolute unless noted.
"""

import json
import math
import time
from fractions import Fraction

import zetasums.cli as cli
from oracles import brute_alt_power_sum, brute_power_sum, quad_eta_split, quad_hurwitz
from zetasums import (
    Family,
    Sign,
    StopRule,
    SumSpec,
    Tolerance,
    check_identity,
    combination_split,
    compare_methods,
    eulerian_polynomial,
    eval_direct,
    even_arg_moment_closed,
    faulhaber_coeffs,
    hurwitz_zeta,
    kappa_ab_alt_transformed,
    kappa_ab_transformed,
    moment_alt_closed,
    moment_closed,
    s_pm_transformed,
)

T9 = Tolerance(1e-9)


def test_criterion_1_closed_form_identity_grids():
    """Plain/alternating sums and their shifted forms: dual-route agreement
    <= 1e-9 absolute on the full grids, under 5 seconds total."""
    start = time.perf_counter()
    worst = 0.0
    for s in (2.5, 3.0, 4.0, 6.0, 10.0):
        rep = check_identity("2.1", s=s, tol=T9)
        assert rep.passed and rep.abs_diff <= 1e-9, ("2.1", s, rep.abs_diff)
        worst = max(worst, rep.abs_diff)
        for a in (0.25, 1.0, 2.5, 9.75):
            rep = check_identity("2.3", s=s, a=a, tol=T9)
            assert rep.passed and rep.abs_diff <= 1e-9, ("2.3", s, a, rep.abs_diff)
            worst = max(worst, rep.abs_diff)
    for s in (1.5, 2.0, 3.0, 7.0):
        rep = check_identity("2.2", s=s, tol=T9)
        assert rep.passed and rep.abs_diff <= 1e-9, ("2.2", s, rep.abs_diff)
        worst = max(worst, rep.abs_diff)
        for a in (0.25, 1.0, 2.5, 9.75):
            rep = check_identity("2.4", s=s, a=a, tol=T9)
            assert rep.passed and rep.abs_diff <= 1e-9, ("2.4", s, a, rep.abs_diff)
            worst = max(worst, rep.abs_diff)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"identity grid took {elapsed:.2f}s"
    print(f"criterion 1 PASS: 45 checks, worst |diff| {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_moment_closed_forms():
    """First three moment sums: closed form vs direct summation <= 1e-9 at
    s in {m+2.5, m+4}; coefficient vectors exactly the published rationals."""
    from zetasums import moment_combination

    want_rows = {
        1: [Fraction(1, 2), Fraction(1, 2)],
        2: [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)],
        3: [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)],
    }
    worst = 0.0
    for m, want in want_rows.items():
        got = [t.coefficient for t in moment_combination(m).terms]
        assert got == want, (m, got)
        for s in (m + 2.5, m + 4.0):
            closed = moment_closed(s, m)
            direct = eval_direct(SumSpec(family=Family.MOMENT, s=s, m=m, tol=T9))
            diff = abs(closed - direct.value)
            assert diff <= 1e-9, (m, s, diff)
            worst = max(worst, diff)
    print(f"criterion 2 PASS: m=1..3 coefficient vectors exact, worst |diff| {worst:.3g}")


def test_criterion_3_alternating_moment_closed_forms():
    """Alternating moments: closed form vs direct <= 1e-9 at s in {3.5, 5}
    for m = 1, 2 and at s in {5.5, 7} for m = 3."""
    worst = 0.0
    for m, points in ((1, (3.5, 5.0)), (2, (3.5, 5.0)), (3, (5.5, 7.0))):
        for s in points:
            closed = moment_alt_closed(s, m)
            direct = eval_direct(SumSpec(family=Family.MOMENT_ALT, s=s, m=m, tol=T9))
            diff = abs(closed - direct.value)
            assert diff <= 1e-9, (m, s, diff)
            worst = max(worst, diff)
    print(f"criterion 3 PASS: alternating m=1..3 worst |diff| {worst:.3g}")


def test_criterion_4_even_argument_sums():
    """Even-argument moment sums: closed form vs direct <= 1e-9 on the stated
    s points; the two split routes agree to 1e-10."""
    worst = 0.0
    for m, s_grid in ((1, (4.0, 5.0)), (2, (5.0, 6.0))):
        for s in s_grid:
            closed = even_arg_moment_closed(s, m)
            direct = eval_direct(SumSpec(family=Family.EVEN_ARG_MOMENT, s=s, m=m, tol=T9))
            diff = abs(closed - direct.value)
            assert diff <= 1e-9, (m, s, diff)
            worst = max(worst, diff)
    for s, m in ((5.0, 1), (6.0, 2), (4.5, 1)):
        lhs, rhs = combination_split(s, m)
        assert abs(lhs - rhs) <= 1e-10, (s, m, abs(lhs - rhs))
    print(f"criterion 4 PASS: worst |diff| {worst:.3g}; split routes within 1e-10")


def test_criterion_5_transformation_benchmark():
    """Small-a acceleration at s=4, b=1, tol=1e-8: term counts inside the
    stated windows, dual-route agreement <= 1e-8, under 30 seconds."""
    start = time.perf_counter()
    tol = Tolerance(1e-8)

    rep1 = compare_methods(4.0, 0.1, 1.0, tol, stop=StopRule.TERM_FLOOR)
    assert 1.0e3 <= rep1.lhs_terms <= 2.5e3, rep1.lhs_terms
    assert rep1.rhs_terms <= 20, rep1.rhs_terms
    assert rep1.agreement <= 1e-8, rep1.agreement

    rep2 = compare_methods(4.0, 0.01, 1.0, tol, stop=StopRule.TERM_FLOOR)
    assert 1.0e4 <= rep2.lhs_terms <= 3.0e4, rep2.lhs_terms
    assert rep2.rhs_terms <= 3, rep2.rhs_terms
    assert rep2.agreement <= 1e-8, rep2.agreement

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"benchmark took {elapsed:.2f}s"
    print(
        "criterion 5 PASS: a=0.1 %d->%d terms, a=0.01 %d->%d terms, "
        "agreement %.2g/%.2g, %.2fs"
        % (rep1.lhs_terms, rep1.rhs_terms, rep2.lhs_terms, rep2.rhs_terms,
           rep1.agreement, rep2.agreement, elapsed)
    )


def test_criterion_6_weighted_transform():
    """Exponentially weighted sums: transform vs direct weighted summation
    <= 1e-8 at the two stated parameter points; c=0 reduces exactly."""
    tol = Tolerance(1e-9)
    worst = 0.0
    for s, a, b, c, sign in ((3.0, 0.5, 1.0, 0.7, Sign.PLUS), (2.0, 0.25, 0.5, 1.2, Sign.MINUS)):
        trans = s_pm_transformed(s, a, b, c, sign, tol)
        direct = eval_direct(
            SumSpec(family=Family.EXP_WEIGHTED, s=s, a=a, b=b, c=c, sign=sign, tol=tol)
        )
        diff = abs(trans.value - direct.value)
        assert diff <= 1e-8, (s, a, b, c, sign, diff)
        worst = max(worst, diff)

    plus = s_pm_transformed(4.0, 0.5, 1.0, 0.0, Sign.PLUS, tol)
    assert plus.value == kappa_ab_transformed(4.0, 0.5, 1.0, tol).value
    minus = s_pm_transformed(2.0, 0.5, 1.0, 0.0, Sign.MINUS, tol)
    assert minus.value == kappa_ab_alt_transformed(2.0, 0.5, 1.0, tol).value
    print(f"criterion 6 PASS: weighted worst |diff| {worst:.3g}; c=0 reduction exact")


def test_criterion_7_quadrature_and_exact_tables():
    """Integral-route oracles and exact tables: quadrature vs series <= 1e-9
    (plain kernel) and <= 1e-8 (alternating kernel); Eulerian and Faulhaber
    coefficients reproduce brute power sums exactly for m <= 8, n <= 50."""
    tol = Tolerance(1e-12)
    worst_plain = 0.0
    for s in (2.5, 3.0, 4.0, 6.0):
        for alpha in (0.5, 1.0, 2.0, 10.0):
            qv, _ = quad_hurwitz(s, alpha)
            diff = abs(qv - hurwitz_zeta(s, alpha, tol))
            assert diff <= 1e-9, (s, alpha, diff)
            worst_plain = max(worst_plain, diff)

    worst_alt = 0.0
    for s in (1.5, 2.0, 3.0):
        for alpha in (0.4, 1.0, 2.0):
            qv, _ = quad_eta_split(s, alpha)
            want = 2.0 ** -s * (
                hurwitz_zeta(s, alpha / 2.0, tol)
                - hurwitz_zeta(s, alpha / 2.0 + 0.5, tol)
            )
            diff = abs(qv - want)
            assert diff <= 1e-8, (s, alpha, diff)
            worst_alt = max(worst_alt, diff)

    # Eulerian rows recompose j^m exactly; partial plain and alternating
    # power sums rebuilt from them must equal the brute integers
    for m in range(1, 9):
        coeffs = eulerian_polynomial(m)
        assert all(type(A) is int for A in coeffs)

        def power(j):
            return sum(
                A * math.comb(j - 1 - k + m, m)
                for k, A in enumerate(coeffs)
                if j - 1 - k >= 0
            )

        plain = alt = 0
        for n in range(1, 51):
            p = power(n)
            assert p == n ** m, (m, n)
            plain += p
            alt += p if n % 2 else -p
            assert plain == brute_power_sum(m, n), (m, n)
            assert alt == brute_alt_power_sum(m, n), (m, n)

    for m in range(0, 9):
        offset, row = faulhaber_coeffs(m)
        for n in range(1, 51):
            poly = sum(c * Fraction(n) ** (offset + i) for i, c in enumerate(row))
            assert poly == brute_power_sum(m, n), (m, n)
    print(
        f"criterion 7 PASS: quadrature worst {worst_plain:.3g}/{worst_alt:.3g}; "
        "exact tables reproduce brute sums m<=8, n<=50"
    )


def test_criterion_8_properties_and_determinism(capsys):
    """Tail bounds dominate observed refinement shifts; the unit-shift
    relation holds; Eulerian rows are symmetric with m! sums; repeated CLI
    runs emit identical bytes."""
    # tail-bound soundness across every family
    specs = [
        SumSpec(family=Family.KAPPA, s=2.5, tol=Tolerance(1e-6)),
        SumSpec(family=Family.KAPPA_ALT, s=1.5, tol=Tolerance(1e-6)),
        SumSpec(family=Family.SHIFTED, s=3.0, a=0.25, tol=Tolerance(1e-7)),
        SumSpec(family=Family.SHIFTED_ALT, s=2.0, a=2.5, tol=Tolerance(1e-7)),
        SumSpec(family=Family.MOMENT, s=5.5, m=3, tol=Tolerance(1e-8)),
        SumSpec(family=Family.MOMENT_ALT, s=3.5, m=2, tol=Tolerance(1e-8)),
        SumSpec(family=Family.EVEN_ARG_MOMENT, s=4.0, m=1, tol=Tolerance(1e-8)),
        SumSpec(family=Family.GENERAL_AB, s=4.0, a=0.1, b=1.0, tol=Tolerance(1e-7)),
        SumSpec(family=Family.GENERAL_AB_ALT, s=2.0, a=0.5, b=1.5, tol=Tolerance(1e-7)),
        SumSpec(
            family=Family.EXP_WEIGHTED, s=2.0, a=1.0, b=0.5, c=1.0,
            sign=Sign.MINUS, tol=Tolerance(1e-7),
        ),
    ]
    for sp in specs:
        coarse = eval_direct(sp)
        fine = eval_direct(
            SumSpec(
                family=sp.family, s=sp.s, m=sp.m, a=sp.a, b=sp.b, c=sp.c,
                sign=sp.sign, tol=Tolerance(sp.tol.abs_tol / 100.0),
            )
        )
        assert abs(coarse.value - fine.value) <= coarse.tail_bound, sp.family

    # unit-shift relation at assorted points
    tol = Tolerance(1e-12)
    for s in (1.5, 3.0, 6.0):
        for alpha in (0.3, 1.0, 4.2):
            lhs = hurwitz_zeta(s, alpha, tol)
            rhs = hurwitz_zeta(s, alpha + 1.0, tol) + alpha ** -s
            assert math.isclose(lhs, rhs, rel_tol=1e-12), (s, alpha)

    # row symmetry and factorial row sums
    for m in range(1, 13):
        row = eulerian_polynomial(m)
        assert row == row[::-1], m
        assert sum(row) == math.factorial(m), m

    # byte-identical CLI reruns (JSON carries no wall-clock fields)
    def run_twice(argv):
        assert cli.main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        return first, capsys.readouterr().out

    for argv in (
        ["identity-check", "all", "--grid", "default", "--format", "json"],
        ["benchmark", "--format", "json"],
        ["eval", "--family", "general-ab", "--s", "4", "--a", "0.01", "--b", "1",
         "--format", "json"],
        ["table", "--family", "eulerian", "--m-max", "8", "--format", "json"],
    ):
        a, b = run_twice(argv)
        assert a == b, argv
        json.loads(a)
    print("criterion 8 PASS: bounds sound, shift identity holds, CLI deterministic")
