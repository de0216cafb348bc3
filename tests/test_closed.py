"""Closed forms and exact rational coefficient tables."""

import math
from fractions import Fraction

import pytest

from helpers import quad_family_sum
from oracles import brute_power_sum
from zetasums import (
    DomainError,
    Family,
    Sign,
    SumSpec,
    Tolerance,
    ZetaCombination,
    ZetaTerm,
    combination_split,
    convergence_threshold,
    eulerian_polynomial,
    eval_direct,
    even_arg_moment_closed,
    even_arg_moment_combination,
    faulhaber_coeffs,
    hurwitz_zeta,
    kappa_alt_closed,
    kappa_alt_combination,
    kappa_closed,
    kappa_combination,
    moment_alt_closed,
    moment_alt_combination,
    moment_closed,
    moment_combination,
    riemann_zeta,
    shifted_alt_closed,
    shifted_closed,
)
from zetasums.closed import (
    _AT_ZERO,
    _euler_tables,
    _even_arg_terms,
    _moment_alt_terms,
    _moment_terms,
)
from zetasums.special import EPS, _hurwitz_core, _sum_terms
from zetasums.sums import _closed_route

T12 = Tolerance(1e-12)


class TestKappa:
    def test_value_is_zeta_shift(self):
        assert math.isclose(kappa_closed(4.0), riemann_zeta(3.0, T12), rel_tol=1e-13)
        assert math.isclose(kappa_closed(3.5), riemann_zeta(2.5, T12), rel_tol=1e-13)

    def test_combination_shape(self):
        (term,) = kappa_combination().terms
        assert term.coefficient == 1
        assert term.s_shift == 1
        assert term.alpha == 1.0
        assert not term.two_pow_neg_s

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_closed(2.0)


class TestKappaAlt:
    def test_reference_value(self):
        assert math.isclose(kappa_alt_closed(2.0), 1.2337005501361697, rel_tol=1e-13)

    def test_eta_like_prefactor(self):
        for s in (1.5, 2.0, 4.0, 7.0):
            want = (1.0 - 2.0 ** -s) * riemann_zeta(s, T12)
            assert math.isclose(kappa_alt_closed(s), want, rel_tol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_alt_closed(1.0)


class TestShifted:
    def test_reduces_to_kappa_at_a_one(self):
        assert math.isclose(shifted_closed(4.0, 1.0), riemann_zeta(3.0, T12), rel_tol=1e-13)

    def test_half_shift_reference(self):
        want = hurwitz_zeta(3.0, 0.5, T12) + 0.5 * hurwitz_zeta(4.0, 0.5, T12)
        assert math.isclose(shifted_closed(4.0, 0.5), want, rel_tol=1e-13)

    def test_against_integral_route(self):
        qv, qe = quad_family_sum(3.5, 1.0, 2.25, 0.0, Sign.PLUS)
        assert abs(shifted_closed(3.5, 2.25) - qv) <= qe + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            shifted_closed(2.0, 1.0)
        with pytest.raises(DomainError):
            shifted_closed(4.0, 0.0)


class TestShiftedAlt:
    def test_pi_squared_over_eight(self):
        assert math.isclose(shifted_alt_closed(2.0, 1.0), math.pi ** 2 / 8.0, rel_tol=1e-13)

    def test_half_lattice_references(self):
        want = 2.0 ** -3 * hurwitz_zeta(3.0, 0.4, T12)
        assert math.isclose(shifted_alt_closed(3.0, 0.8), want, rel_tol=1e-13)
        want = 2.0 ** -1.5 * hurwitz_zeta(1.5, 2.0, T12)
        assert math.isclose(shifted_alt_closed(1.5, 4.0), want, rel_tol=1e-13)

    def test_against_integral_route(self):
        qv, qe = quad_family_sum(1.5, 1.0, 4.0, 0.0, Sign.MINUS)
        assert abs(shifted_alt_closed(1.5, 4.0) - qv) <= qe + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            shifted_alt_closed(1.0, 1.0)


class TestEulerian:
    def test_small_rows(self):
        assert eulerian_polynomial(1) == (1,)
        assert eulerian_polynomial(2) == (1, 1)
        assert eulerian_polynomial(3) == (1, 4, 1)
        assert eulerian_polynomial(4) == (1, 11, 11, 1)

    def test_worpitzky_style_formula(self):
        # A(m, k) = sum_j (-1)^j C(m+1, j) (k+1-j)^m, exact integers
        for m in range(1, 13):
            row = eulerian_polynomial(m)
            for k, got in enumerate(row):
                want = sum(
                    (-1) ** j * math.comb(m + 1, j) * (k + 1 - j) ** m
                    for j in range(k + 2)
                )
                assert got == want, (m, k)

    def test_symmetry_and_row_sums(self):
        for m in range(1, 13):
            row = eulerian_polynomial(m)
            assert row == row[::-1]
            assert sum(row) == math.factorial(m)

    def test_domain(self):
        with pytest.raises(DomainError):
            eulerian_polynomial(0)
        with pytest.raises(DomainError):
            eulerian_polynomial(13)


class TestFaulhaber:
    def test_known_rows(self):
        assert faulhaber_coeffs(1) == (1, (Fraction(1, 2), Fraction(1, 2)))
        assert faulhaber_coeffs(2) == (1, (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
        assert faulhaber_coeffs(3) == (2, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))

    def test_exact_against_brute_sums(self):
        for m in range(0, 13):
            offset, row = faulhaber_coeffs(m)
            for n in (1, 2, 7, 50):
                poly = sum(c * Fraction(n) ** (offset + i) for i, c in enumerate(row))
                assert poly == brute_power_sum(m, n), (m, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            faulhaber_coeffs(-1)
        with pytest.raises(DomainError):
            faulhaber_coeffs(13)

    def test_domain_after_the_table_is_cached(self):
        # the tables are built once per m; a cached m = 2 must not answer
        # m = 2.0, nor a non-integer reach the cache as a key
        first = faulhaber_coeffs(2)
        for bad in (2.0, [1], 1.5, "2", -1, 13):
            with pytest.raises(DomainError):
                faulhaber_coeffs(bad)
        assert faulhaber_coeffs(2) == first
        # E_2(x) = x^2 - x
        assert _euler_tables(2)[0] == (0, -1, 1)


class TestMoment:
    def test_m1_reference(self):
        want = 0.5 * (riemann_zeta(4.0, T12) + riemann_zeta(3.0, T12))
        assert math.isclose(moment_closed(5.0, 1), want, rel_tol=1e-13)

    def test_m3_reference(self):
        want = 0.25 * riemann_zeta(5.0, T12) + 0.5 * riemann_zeta(4.0, T12) \
            + 0.25 * riemann_zeta(3.0, T12)
        assert math.isclose(moment_closed(7.0, 3), want, rel_tol=1e-13)

    def test_coefficients_are_faulhaber(self):
        # power p of the polynomial pairs with the shift-p zeta value;
        # zero coefficients carry no term
        for m in range(1, 7):
            combo = [(t.coefficient, t.s_shift) for t in moment_combination(m).terms]
            offset, coeffs = faulhaber_coeffs(m)
            want = [(c, offset + i) for i, c in enumerate(coeffs) if c != 0]
            assert combo == want, m

    def test_domain(self):
        # the threshold named is the combination's, past its largest shift
        # m + 1, not the first term's out of range
        with pytest.raises(DomainError, match=r"needs s > 5, got s = 4\.0"):
            moment_closed(4.0, 3)
        with pytest.raises(DomainError):
            moment_closed(5.0, 13)


class TestMomentAlt:
    def test_m1_reference(self):
        want = 2.0 ** -4 * (
            hurwitz_zeta(3.0, 0.5, T12)
            + 0.5 * hurwitz_zeta(4.0, 0.5, T12)
            - riemann_zeta(3.0, T12)
        )
        assert math.isclose(moment_alt_closed(4.0, 1), want, rel_tol=1e-12)

    def test_m2_reference(self):
        want = 0.5 * (
            (1.0 - 2.0 ** -3) * riemann_zeta(4.0, T12)
            + (1.0 - 2.0 ** -2) * riemann_zeta(3.0, T12)
        )
        assert math.isclose(moment_alt_closed(5.0, 2), want, rel_tol=1e-13)

    def test_m_zero_is_kappa_alt_and_m_three_has_five_terms(self):
        assert moment_alt_combination(0) == kappa_alt_combination()
        assert len(moment_alt_combination(3).terms) == 5

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_alt_closed(2.0, 1)  # needs s > m + 1
        with pytest.raises(DomainError, match=r"needs s > 7, got s = 3\.0"):
            moment_alt_closed(3.0, 6)


class TestEvenArgMoment:
    def test_m1_reference(self):
        z3 = riemann_zeta(3.0, T12)
        z2 = riemann_zeta(2.0, T12)
        want = (1.0 / 8.0) * (
            (1.0 + 2.0 ** -3) * z3
            + z2
            - 2.0 ** -3 * (hurwitz_zeta(3.0, 0.5, T12) + 0.5 * hurwitz_zeta(4.0, 0.5, T12))
        )
        assert math.isclose(even_arg_moment_closed(4.0, 1), want, rel_tol=1e-12)

    def test_m2_reference(self):
        z4 = riemann_zeta(4.0, T12)
        z3 = riemann_zeta(3.0, T12)
        z2 = riemann_zeta(2.0, T12)
        want = (1.0 / 24.0) * (
            (3.0 * 2.0 ** -4 - 1.0) * z4 + 6.0 * 2.0 ** -4 * z3 + z2
        )
        assert math.isclose(even_arg_moment_closed(5.0, 2), want, rel_tol=1e-12)

    def test_m_zero_has_two_terms_and_m_three_five(self):
        assert len(even_arg_moment_combination(0).terms) == 2
        assert len(even_arg_moment_combination(3).terms) == 5

    def test_domain(self):
        with pytest.raises(DomainError):
            even_arg_moment_closed(3.0, 1)
        with pytest.raises(DomainError):
            even_arg_moment_closed(4.0, 2)


class TestCombinationEval:
    def test_split_routes_agree(self):
        lhs, rhs = combination_split(5.0, 1)
        assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("m", range(13))
    def test_split_routes_agree_within_their_bounds(self, m):
        s, loose = m + 3.5, Tolerance(1.0)
        b_plain = moment_combination(m).evaluate_with_bound(s, loose)[1]
        b_alt = moment_alt_combination(m).evaluate_with_bound(s, loose)[1]
        b_even = even_arg_moment_combination(m).evaluate_with_bound(s, loose)[1]
        lhs, rhs = combination_split(s, m, tol=Tolerance(1e-9))
        # the half-difference rounds once more, in its subtraction
        assert abs(lhs - rhs) <= 2.0 ** (-m - 1) * (b_plain + b_alt) + b_even + EPS * abs(lhs)

    def test_bound_is_honest(self):
        combo = moment_combination(2)
        v1, b1 = combo.evaluate_with_bound(5.0, Tolerance(1e-9))
        v2, _ = combo.evaluate_with_bound(5.0, Tolerance(1e-13))
        assert abs(v1 - v2) <= b1

    def test_unattainable_tolerance_raises(self):
        with pytest.raises(DomainError, match="unattainable"):
            moment_combination(2).evaluate_with_bound(5.0, Tolerance(2.0 ** -52))

    def test_evaluate_rejects_a_bare_float_tol_and_nonfinite_s(self):
        combo = kappa_combination()
        with pytest.raises(DomainError, match="Tolerance"):
            combo.evaluate_with_bound(4.0, 1e-8)
        for s in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                combo.evaluate_with_bound(s, T12)

    @pytest.mark.parametrize("args, match", [
        ((1, 0), "Fraction"),
        ((Fraction(0), 0), "nonzero"),
        ((Fraction(1), -1), "s_shift"),
        ((Fraction(1), 1.0), "s_shift"),
        ((Fraction(1), 0, 0.0), "alpha"),
        ((Fraction(1), 0, -2.0), "alpha"),
        ((Fraction(1), 0, math.inf), "alpha"),
    ])
    def test_term_rejects(self, args, match):
        with pytest.raises(DomainError, match=match):
            ZetaTerm(*args)

    def test_combination_rejects_empty_and_foreign_entries(self):
        with pytest.raises(DomainError, match="at least one term"):
            ZetaCombination(())
        with pytest.raises(DomainError, match="ZetaTerm"):
            ZetaCombination((ZetaTerm(Fraction(1), 1), (Fraction(1), 1, 1.0)))

    def test_split_rejects_a_bare_float_tol(self):
        # the tolerance is checked before anything reads it
        with pytest.raises(DomainError, match="Tolerance"):
            combination_split(4.0, 1, tol=1e-8)

    def test_split_needs_s_past_both_routes(self):
        # m = 3 needs s > 5, as the plain moment form reaches zeta(s - 4)
        with pytest.raises(DomainError, match="combination needs s > 5,"):
            combination_split(4.0, 3)


def _t(c, d, alpha=1.0, two_pow_neg_s=False):
    return ZetaTerm(Fraction(c), d, alpha, two_pow_neg_s)


# The closed forms as hand-typed tables before one exact builder served both
# them and the direct route's tails, with each sum's s_min: the independent
# reference of the builder at K = 0.
_OLD_TABLES = {
    "kappa": (kappa_combination, 2.0, [_t(1, 1)]),
    "kappa-alt": (kappa_alt_combination, 1.0, [_t(1, 0), _t(-1, 0, 1.0, True)]),
    "moment-0": (lambda: moment_combination(0), 2.0, [_t(1, 1)]),
    "moment-1": (lambda: moment_combination(1), 3.0, [_t("1/2", 1), _t("1/2", 2)]),
    "moment-2": (lambda: moment_combination(2), 4.0,
                 [_t("1/6", 1), _t("1/2", 2), _t("1/3", 3)]),
    "moment-3": (lambda: moment_combination(3), 5.0,
                 [_t("1/4", 2), _t("1/2", 3), _t("1/4", 4)]),
    "moment-alt-1": (lambda: moment_alt_combination(1), 2.0, [
        _t(1, 1, 0.5, True), _t("1/2", 0, 0.5, True), _t(-1, 1, 1.0, True),
    ]),
    "moment-alt-2": (lambda: moment_alt_combination(2), 3.0, [
        _t("1/2", 1), _t(-2, 1, 1.0, True), _t("1/2", 2), _t(-4, 2, 1.0, True),
    ]),
    "even-arg-1": (lambda: even_arg_moment_combination(1), 3.0, [
        _t("1/8", 1), _t("1/4", 1, 1.0, True), _t("1/8", 2),
        _t("-1/4", 1, 0.5, True), _t("-1/8", 0, 0.5, True),
    ]),
    "even-arg-2": (lambda: even_arg_moment_combination(2), 4.0, [
        _t("-1/24", 1), _t("1/4", 1, 1.0, True), _t("1/2", 2, 1.0, True), _t("1/24", 3),
    ]),
}


def _folded(terms):
    """{(shift, two_pow_neg_s): coefficient} of the terms with every
    2^-s zeta(s - d, 1/2) written as 2^-d zeta(s - d) - 2^-s zeta(s - d)."""
    out = {}
    for t in terms:
        parts = [(t.coefficient, t.two_pow_neg_s)]
        if t.alpha == 0.5:
            assert t.two_pow_neg_s
            parts = [(t.coefficient / 2 ** t.s_shift, False), (-t.coefficient, True)]
        else:
            assert t.alpha == 1.0
        for c, flag in parts:
            out[t.s_shift, flag] = out.get((t.s_shift, flag), 0) + c
    return {key: c for key, c in out.items() if c}


def _in_builder_order(terms):
    return tuple(sorted(terms, key=lambda t: (t.s_shift, _AT_ZERO.index(t[2:]))))


# (builder, lattice point of term k, sign of term k)
_BUILDERS = {
    "moment": (_moment_terms, lambda k: k, lambda k: 1),
    "moment-alt": (_moment_alt_terms, lambda k: k, lambda k: (-1) ** (k - 1)),
    "even-arg": (_even_arg_terms, lambda k: 2 * k, lambda k: 1),
}


class TestExactBuilder:
    @pytest.mark.parametrize("name", sorted(_OLD_TABLES))
    def test_closed_form_is_the_old_table_after_the_fold(self, name):
        build, _, table = _OLD_TABLES[name]
        assert _folded(build().terms) == _folded(table)

    def test_shapes(self):
        # the rewrite keeps these two tables as they were, and takes
        # kappa-alt and even-arg m = 1 to fewer terms
        for name in ("moment-alt-1", "even-arg-2"):
            build, _, table = _OLD_TABLES[name]
            assert build().terms == _in_builder_order(table), name
        assert kappa_alt_combination().terms == (_t(1, 0, 0.5, True),)
        assert even_arg_moment_combination(1).terms == (
            _t("-1/8", 0, 0.5, True), _t("1/2", 1, 1.0, True), _t("1/8", 2),
        )

    @pytest.mark.parametrize("name", sorted(_OLD_TABLES))
    def test_no_closed_bound_is_looser_than_the_old_table(self, name):
        # the old table in the builder's term order, so that the same terms
        # sum their bounds in the same order
        build, s_min, table = _OLD_TABLES[name]
        new, old = build(), ZetaCombination(_in_builder_order(table))
        loose = Tolerance(1.0)
        for i in range(41):
            s = s_min + 1e-3 * 8000.0 ** (i / 40)
            v_new, b_new = new.evaluate_with_bound(s, loose)
            v_old, b_old = old.evaluate_with_bound(s, loose)
            assert b_new <= b_old, s
            assert abs(v_new - v_old) <= b_new + b_old, s

    @pytest.mark.parametrize("family", sorted(_BUILDERS))
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 6, 12])
    def test_consecutive_tails_differ_by_one_term(self, family, m):
        # T(K) - T(K + 1) is term K + 1: this grades the tail at every K on
        # its own, as the closed form is the same builder at K = 0
        build, point, sign = _BUILDERS[family]
        s_min = m + (1.0 if family == "moment-alt" else 2.0)
        for s in (s_min + 0.5, s_min + 3.0):
            for K in (0, 1, 2, 5, 16):
                hi, hi_err = _sum_terms(s, build(m, K))
                lo, lo_err = _sum_terms(s, build(m, K + 1))
                w = float(sign(K + 1) * (K + 1) ** m)
                v, b = _hurwitz_core(s, float(point(K + 1)))
                gap = math.fsum([hi, -lo, -w * v])
                assert abs(gap) <= hi_err + lo_err + abs(w) * b + EPS * abs(w * v), (s, K)

    @pytest.mark.parametrize("family", [Family.MOMENT_ALT, Family.EVEN_ARG_MOMENT])
    @pytest.mark.parametrize("m", range(13))
    def test_closed_form_agrees_with_direct_for_every_m(self, family, m):
        # the direct route at a tol relative to the sum, so that its bound
        # stays tight where the sum is small
        for gap in (0.02, 0.1, 0.5, 1.0, 3.0, 8.0):
            s = convergence_threshold(family, m) + gap
            closed = _closed_route(SumSpec(family, s, m=m, tol=Tolerance(1.0)))
            tol = Tolerance(max(1e-12 * abs(closed.value), 2.0 ** -52))
            direct = eval_direct(SumSpec(family, s, m=m, tol=tol))
            assert closed.terms_used == (1 if (family, m) == (Family.MOMENT_ALT, 0) else m + 2)
            assert abs(closed.value - direct.value) <= closed.tail_bound + direct.tail_bound, s

    @pytest.mark.parametrize("family", sorted(_BUILDERS))
    def test_float_plan_is_the_exact_plan_converted(self, family):
        # the direct route's tails take float coefficients converted once per
        # m, and zeta(s, K + 1)'s as an int / int division: float() of the
        # exact plan's Fractions, bit for bit
        build = _BUILDERS[family][0]
        for m in range(13):
            for K in (0, 1, 2, 5, 16, 10 ** 7):
                floats, exact = build(m, K), build(m, K, exact=True)
                assert all(type(c) is float for c, *_ in floats)
                assert [(float(c).hex(), *rest) for c, *rest in exact] == [
                    (c.hex(), *rest) for c, *rest in floats
                ], (m, K)

    @pytest.mark.parametrize("family", sorted(_BUILDERS))
    def test_cached_terms_are_a_fresh_build(self, family):
        # every tail check at one K, and the closed form at K = 0, read one
        # cached tuple: it must hold the bits of a fresh build, be immutable
        # all the way down, be the same object on a repeat, and the cache
        # must be bounded, as the far probe asks for K at the term budget
        build = _BUILDERS[family][0]
        assert isinstance(build.cache_info().maxsize, int)

        def bits(terms):
            return [tuple(v.hex() if type(v) is float else v for v in t) for t in terms]

        for m in range(13):
            for K in (0, 1, 2, 16, 17):
                for exact in (False, True):
                    cached = build(m, K, exact)
                    assert type(cached) is tuple and all(type(t) is tuple for t in cached)
                    assert bits(cached) == bits(build.__wrapped__(m, K, exact)), (m, K, exact)
                    assert build(m, K, exact) is cached

    def test_two_pow_neg_s_coefficients_are_dyadic(self):
        # such a coefficient converts exactly, so it rounds only in 2^-s and
        # in their product: the single charge of _sum_terms counts on it
        combos = [build().terms for build, _, _ in _OLD_TABLES.values()]
        for build, _, _ in _BUILDERS.values():
            combos += [build(m, K, exact=True) for m in range(13) for K in (0, 1, 2, 5, 16)]
        for terms in combos:
            for c, _, _, two_pow_neg_s in terms:
                if two_pow_neg_s:
                    den = Fraction(c).denominator
                    assert den & (den - 1) == 0, c
