"""Scalar special-function layer: values, brackets, and domain checks."""

import math
import random
import struct
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from helpers import (
    bernoulli_recurrence,
    decimal_hurwitz,
    in_bracket,
    sandwich_hurwitz,
    sandwich_lerch,
)
from zetasums import (
    DomainError,
    TermBudgetError,
    Tolerance,
    UnattainableError,
    bernoulli_fraction,
    bernoulli_numbers,
    dirichlet_eta,
    gamma_fn,
    hurwitz_tail_bound,
    hurwitz_zeta,
    lerch_phi,
    pochhammer,
    riemann_zeta,
)
from zetasums.special import EPS, _hurwitz_core

T12 = Tolerance(1e-12)


class TestGammaPochhammer:
    def test_gamma_half_is_sqrt_pi(self):
        assert math.isclose(gamma_fn(0.5), math.sqrt(math.pi), rel_tol=1e-13)

    def test_gamma_matches_mpmath_across_range(self):
        # up to Gamma(171) = 7.3e306: Gamma is finite there, and so must
        # gamma_fn be, with no intermediate overflow
        mpmath = pytest.importorskip("mpmath")
        for s in [0.03 + 0.37 * k for k in range(463)] + [150.0, 171.0]:
            want = mpmath.gamma(mpmath.mpf(s), prec=133)  # 40 digits
            assert abs(gamma_fn(s) - want) <= 1e-15 * want, s

    def test_gamma_beyond_double_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="double range"):
            gamma_fn(172.0)

    def test_gamma_integer_factorials(self):
        for n in range(1, 15):
            assert math.isclose(gamma_fn(float(n)), math.factorial(n - 1), rel_tol=1e-13)

    def test_gamma_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-2.5)

    def test_pochhammer_values(self):
        assert pochhammer(1.0, 5) == 120.0
        assert pochhammer(2.0, 3) == 24.0
        assert pochhammer(3.75, 0) == 1.0

    def test_pochhammer_recurrence(self):
        x = 1.6
        for n in range(1, 8):
            assert math.isclose(
                pochhammer(x, n), pochhammer(x, n - 1) * (x + n - 1), rel_tol=1e-14
            )

    def test_pochhammer_rejects_negative_order(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    def test_pochhammer_rejects_infinite_a_and_overflow(self):
        with pytest.raises(DomainError, match="finite a"):
            pochhammer(math.inf, 2)
        with pytest.raises(DomainError, match="exceeds double range"):
            pochhammer(1e300, 3)


class TestBernoulli:
    def test_b12_value(self):
        assert bernoulli_fraction(12) == Fraction(-691, 2730)

    def test_table_prefix(self):
        assert bernoulli_numbers(4) == (
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 6),
            Fraction(0),
            Fraction(-1, 30),
        )

    def test_index_past_the_table_is_rejected(self):
        with pytest.raises(DomainError, match=r"\[0, 64\]"):
            bernoulli_fraction(65)
        with pytest.raises(DomainError, match=r"\[0, 64\]"):
            bernoulli_numbers(65)

    def test_odd_indices_vanish(self):
        for n in range(3, 13, 2):
            assert bernoulli_fraction(n) == 0

    def test_whole_table_against_two_references(self):
        mpmath = pytest.importorskip("mpmath")
        table = bernoulli_numbers(64)
        assert table == bernoulli_recurrence(64)
        for n, b in enumerate(table):
            assert type(b) is Fraction
            assert b == Fraction(*mpmath.bernfrac(n)), n


class TestRiemannZeta:
    def test_reference_points(self):
        assert math.isclose(riemann_zeta(2.0, T12), 1.6449340668482264, rel_tol=1e-13)
        assert math.isclose(riemann_zeta(3.0, T12), 1.2020569031595943, rel_tol=1e-13)
        assert math.isclose(riemann_zeta(4.0, T12), 1.0823232337111382, rel_tol=1e-13)

    def test_even_argument_exact_forms(self):
        assert math.isclose(riemann_zeta(2.0, T12), math.pi ** 2 / 6.0, rel_tol=1e-13)
        assert math.isclose(riemann_zeta(6.0, T12), math.pi ** 6 / 945.0, rel_tol=1e-13)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            riemann_zeta(1.0, T12)
        with pytest.raises(DomainError):
            riemann_zeta(0.5, T12)


class TestHurwitzZeta:
    def test_half_argument_closed_value(self):
        # zeta(2, 1/2) = pi^2 / 2
        assert math.isclose(hurwitz_zeta(2.0, 0.5, T12), math.pi ** 2 / 2.0, rel_tol=1e-13)
        assert math.isclose(hurwitz_zeta(2.0, 0.5, T12), 4.9348022005446793, rel_tol=1e-13)

    def test_alpha_one_reduces_to_riemann(self):
        for s in (1.5, 2.0, 3.3, 7.0, 10.0):
            assert math.isclose(
                hurwitz_zeta(s, 1.0, T12), riemann_zeta(s, T12), rel_tol=1e-13
            )

    def test_against_elementary_bracket(self):
        for s in (1.5, 2.5, 4.0, 6.0, 10.0):
            for alpha in (0.05, 0.5, 1.0, 3.25, 20.0, 400.0):
                lo, hi = sandwich_hurwitz(s, alpha, n=20000)
                tol = Tolerance(1e-12 * max(1.0, alpha ** -s))
                v = hurwitz_zeta(s, alpha, tol)
                assert in_bracket(v, lo, hi, slack=2e-12 * abs(v)), (s, alpha)

    def test_shift_identity(self):
        # zeta(s, a) = zeta(s, a+1) + a^(-s); pick an absolute goal the
        # value's own scale can honour (alpha^-s can reach 1e9 here)
        for s in (1.5, 2.0, 4.0, 9.0):
            for alpha in (0.1, 0.7, 1.0, 5.5):
                tol = Tolerance(1e-12 * max(1.0, alpha ** -s))
                left = hurwitz_zeta(s, alpha, tol)
                right = hurwitz_zeta(s, alpha + 1.0, tol) + alpha ** -s
                assert math.isclose(left, right, rel_tol=5e-13), (s, alpha)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0, T12)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0, T12)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, -1.0, T12)

    def test_tolerance_type_enforced(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 1.0, 1e-12)

    def test_beyond_double_range_is_a_domain_error(self):
        # 1e-11^-40 overflows; Python's float power raises instead of giving inf
        with pytest.raises(DomainError, match="double range"):
            hurwitz_zeta(40.0, 1e-11, Tolerance(1e-8))
        with pytest.raises(DomainError, match="double range"):
            lerch_phi(0.5, 40.0, 1e-11, Tolerance(1e-8))

    @pytest.mark.parametrize("s, alpha", [
        (32.74005690148546, 127.04007292137986),
        (10.363232495351646, 124.88269033387552),
        (15.35586856418432, 15.657928333502765),
        (16.901723796238436, 121.55584156320954),
        (47.19229537714359, 978.523526022704),
        (21.19903544245385, 237.08465435622966),
    ])
    def test_kernel_encloses_at_inexact_split(self, s, alpha):
        # the rounding of n + alpha and N + alpha grows by a factor s in the
        # powers; uncompensated it broke the kernel's bound by up to 6x here
        value, bound = _hurwitz_core(s, alpha)
        assert abs(Decimal(value) - decimal_hurwitz(s, alpha)) <= Decimal(bound)


class TestTailBound:
    def test_reference_values(self):
        assert math.isclose(hurwitz_tail_bound(4.0, 1.0), 4.0 / 3.0, rel_tol=1e-15)
        assert math.isclose(hurwitz_tail_bound(2.0, 10.0), 0.11, rel_tol=1e-15)
        assert math.isclose(hurwitz_tail_bound(3.0, 100.0), 5.1e-5, rel_tol=1e-12)

    def test_dominates_the_sum_it_bounds(self):
        for s in (1.5, 2.0, 3.0, 4.0, 8.0):
            for alpha in (0.5, 1.0, 4.0, 30.0, 1000.0):
                lo, hi = sandwich_hurwitz(s, alpha, n=20000)
                assert hurwitz_tail_bound(s, alpha) >= hi * (1.0 - 1e-14), (s, alpha)

    def test_monotone_in_alpha(self):
        prev = hurwitz_tail_bound(3.0, 0.5)
        for alpha in (1.0, 2.0, 8.0, 64.0, 512.0):
            cur = hurwitz_tail_bound(3.0, alpha)
            assert cur < prev
            prev = cur

    def test_saturates_beyond_double_range(self):
        assert hurwitz_tail_bound(40.0, 1e-11) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_tail_bound(1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_tail_bound(2.0, 0.0)


class TestDirichletEta:
    def test_reference_points(self):
        assert math.isclose(dirichlet_eta(2.0, T12), 0.8224670334241132, rel_tol=1e-13)
        assert math.isclose(dirichlet_eta(3.0, T12), 0.9015426773696957, rel_tol=1e-13)
        assert math.isclose(dirichlet_eta(4.0, T12), 0.9470328294972459, rel_tol=1e-13)

    def test_eta_from_zeta(self):
        for s in (1.5, 2.5, 6.0):
            want = (1.0 - 2.0 ** (1.0 - s)) * riemann_zeta(s, T12)
            assert math.isclose(dirichlet_eta(s, T12), want, rel_tol=1e-13)

    @staticmethod
    def _floor_tol(s):
        """The smallest tol dirichlet_eta(s, tol) certifies, by bisection over
        the doubles from EPS, which it refuses, to 1e-12, which it certifies."""
        to_int = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
        to_tol = lambda i: Tolerance(struct.unpack("<d", struct.pack("<q", i))[0])
        lo, hi = to_int(EPS), to_int(1e-12)
        with pytest.raises(UnattainableError):
            dirichlet_eta(s, to_tol(lo))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                dirichlet_eta(s, to_tol(mid))
            except UnattainableError:
                lo = mid
            else:
                hi = mid
        return to_tol(hi)

    def test_encloses_eta_at_its_floor(self, monkeypatch):
        # at the smallest tol it certifies, against (1 - 2^(1-s)) zeta(s) in
        # Decimal, with the kernel as it is and with kernels whose value sits
        # at either end of its own bound, where the charge for the factor
        # and the product is all that is left to cover them
        import zetasums.special as special

        rng = random.Random(31)
        draws = [1.0 + 10.0 ** rng.uniform(-9.0, -2.0) for _ in range(12)]
        draws += [1.01, 2.0, 60.0] + [rng.uniform(2.0, 60.0) for _ in range(12)]
        kernel = special._hurwitz_core
        with localcontext() as ctx:
            ctx.prec = 50
            for s in draws:
                zeta = decimal_hurwitz(s, 1.0, 40)
                eta = (1 - Decimal(2) ** (1 - Decimal(s))) * zeta
                _, bound = kernel(s, 1.0)
                for side in (0, 1, -1):
                    if side:
                        v = float(zeta + side * Decimal(bound))
                        if abs(Decimal(v) - zeta) > Decimal(bound):
                            v = math.nextafter(v, -side * math.inf)
                        monkeypatch.setattr(special, "_hurwitz_core",
                                            lambda *args, v=v: (v, bound))
                    tol = self._floor_tol(s)
                    assert abs(Decimal(dirichlet_eta(s, tol)) - eta) <= Decimal(tol.abs_tol), (s, side)
                monkeypatch.setattr(special, "_hurwitz_core", kernel)


class TestLerchPhi:
    def test_z_one_reduces_to_hurwitz(self):
        assert math.isclose(
            lerch_phi(1.0, 3.0, 2.0, T12), hurwitz_zeta(3.0, 2.0, T12), rel_tol=1e-13
        )

    def test_z_minus_one_half_lattice_split(self):
        # Phi(-1, s, a) = 2^(-s) * (zeta(s, a/2) - zeta(s, (a+1)/2))
        for s, alpha in ((2.0, 1.0), (3.0, 0.8), (1.5, 2.5)):
            want = 2.0 ** -s * (
                hurwitz_zeta(s, alpha / 2.0, T12)
                - hurwitz_zeta(s, alpha / 2.0 + 0.5, T12)
            )
            assert math.isclose(lerch_phi(-1.0, s, alpha, T12), want, rel_tol=1e-12)

    @pytest.mark.parametrize("s, tol", [(1.000001, 1e-10), (1.000001, 1e-12), (1.0001, 1e-12)])
    def test_z_minus_one_near_pole_is_eta(self, s, tol):
        # Phi(-1, s, 1) = eta(s); the half-lattice split cancels two values
        # of size 1/(s - 1) here and could not certify these requests
        T = Tolerance(tol)
        assert abs(lerch_phi(-1.0, s, 1.0, T) - dirichlet_eta(s, T)) <= 2.0 * tol

    def test_interior_z_against_bracket(self):
        for zv, s, alpha in (
            (math.exp(-1.0), 2.0, 1.0),
            (0.5, 1.2, 0.3),
            (-0.8, 1.5, 2.0),
            (0.9, 3.0, 0.5),
        ):
            lo, hi = sandwich_lerch(zv, s, alpha, n=1200)
            v = lerch_phi(zv, s, alpha, T12)
            assert in_bracket(v, lo, hi, slack=1e-12), (zv, s, alpha)

    @pytest.mark.parametrize("z", [0.5, -0.5, 0.9, -0.9, 0.99])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0])
    def test_nonpositive_s_against_exact_forms(self, z, alpha, s):
        # s <= 0 runs the term-by-term series on the series driver, which
        # stops once its bound fits tol; sum z^n (n + alpha)^k, k = -s, is
        # rational in z and alpha, and the bound must enclose it
        zq, aq = Fraction(z), Fraction(alpha)
        want = {
            0.0: 1 / (1 - zq),
            -1.0: aq / (1 - zq) + zq / (1 - zq) ** 2,
            -2.0: aq ** 2 / (1 - zq) + 2 * aq * zq / (1 - zq) ** 2
            + zq * (1 + zq) / (1 - zq) ** 3,
        }[s]
        tol = 1e-9 * max(1.0, float(want))
        assert abs(Fraction(lerch_phi(z, s, alpha, Tolerance(tol))) - want) <= Fraction(tol)

    @pytest.mark.parametrize("z, s, alpha", [
        (0.00347844499614946, -80.0, 15.795470058838953),
        (0.021422066431024456, -68.0, 5.718878708207933),
    ])
    def test_nonpositive_s_charges_the_rounding_of_n_plus_alpha(self, z, s, alpha):
        # the power amplifies the rounding of n + alpha -s times, which a
        # charge of (n + 3) EPS a term misses at both points: the tightest
        # tolerance the ladder certifies must enclose the exact sum, whose
        # terms past n = 150 are below 1e-160 of it
        zq, aq = Fraction(z), Fraction(alpha)
        terms = [zq ** n * (n + aq) ** int(-s) for n in range(150)]
        want = sum(terms)
        for k in range(64):
            tol = 2.0 ** k * EPS * float(max(terms))
            try:
                value = lerch_phi(z, s, alpha, Tolerance(tol))
            except DomainError as exc:
                assert "unattainable" in str(exc)
                continue
            assert abs(Fraction(value) - want) <= Fraction(tol)
            return
        pytest.fail("no tolerance certified")

    def test_nonpositive_s_series_stops_at_the_term_budget(self, monkeypatch):
        # the tail's ratio bound 0.999 (1 + 1/(k + 1)) stays >= 1 up to
        # k = 998, so 500 terms give neither an enclosure nor a floor to
        # refuse on; the default budget certifies the same request
        args = (0.999, -1.0, 1.0, Tolerance(1e-6))
        assert math.isclose(lerch_phi(*args), 1e6, rel_tol=1e-12)
        monkeypatch.setenv("ZS_TERM_BUDGET", "500")
        with pytest.raises(TermBudgetError, match=r"lerch series .* term budget \(500\)"):
            lerch_phi(*args)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lerch_phi(1.5, 2.0, 1.0, T12)
        with pytest.raises(DomainError):
            lerch_phi(1.0 - 1e-14, 2.0, 1.0, T12)  # degenerate near-1 inputs
        with pytest.raises(DomainError):
            lerch_phi(1.0, 1.0, 1.0, T12)  # |z| = 1 needs s > 1
        with pytest.raises(DomainError):
            lerch_phi(0.5, 2.0, 0.0, T12)
        for args in ((math.nan, 2.0, 1.0), (0.5, -math.inf, 1.0), (0.5, 2.0, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                lerch_phi(*args, T12)
        # the s <= 0 series: (n + alpha)^400 leaves double range at once
        with pytest.raises(DomainError, match="exceeds double range"):
            lerch_phi(0.5, -400.0, 1e3, Tolerance(1e-6))


@pytest.mark.parametrize("call", [
    lambda tol: hurwitz_zeta(1.0 + 1e-6, 1.0, tol),
    lambda tol: dirichlet_eta(1.0 + 1e-6, tol),
    lambda tol: lerch_phi(0.999, 2.0, 1.0, tol),  # the damped-lattice kernel
    lambda tol: lerch_phi(0.999, -1.0, 1.0, tol),  # the series driver
])
def test_unattainable_at_the_tolerance_floor(call):
    # 2^-52 is below the rounding floor of each of these values
    with pytest.raises(DomainError, match="unattainable"):
        call(Tolerance(2.0 ** -52))
