"""The exp-weighted enclosure shared by the Lerch kernel and both damped zeta
tails: Boole's envelope, the Lerch kernel against an elementary bracket, the
two routes against the Laplace-integral route, and bounded time at small c."""

import math
import time

import pytest

from helpers import laplace_affine_sum, quad_family_sum, sandwich_lerch
from zetasums import (
    DomainError,
    Family,
    Sign,
    StopRule,
    SumSpec,
    Tolerance,
    TermBudgetError,
    eval_direct,
    kappa_ab_alt_transformed,
    lerch_phi,
    s_pm_transformed,
)
from zetasums import special
from zetasums.special import EPS, _boole, _damped_zeta, _hurwitz_core, _lerch_core, _power_phi
from zetasums.sums import _damped_tail

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _alternating_reference(c, p, x0, n=4000):
    """sum over t >= 0 of (-1)^t e^(-ct) (x0 + t)^-p as a bracket, from n terms."""
    return sandwich_lerch(-math.exp(-c), p, x0, n)


class TestBooleEnvelope:
    @pytest.mark.parametrize("p", [0.5, 1.5, 3.0, 8.0])
    @pytest.mark.parametrize("c", [0.01, 0.3, 0.9])
    @pytest.mark.parametrize("x0", [20.0, 60.0])
    def test_every_stopping_order_encloses(self, p, c, x0):
        lo, hi = _alternating_reference(c, p, x0, n=math.ceil(40.0 / c))
        head = 0.5 * x0 ** -p
        seen = set()
        for k in range(2, 40, 2):
            # stopping at ever smaller corrections walks through the orders
            value, err, done = _boole(_power_phi(p), p, c, x0, 1.0, head * 2.0 ** -k, 0.0)
            pad = 4.0 * EPS * head
            assert lo - err - pad <= value <= hi + err + pad, (k, value, err)
            seen.add(round(err / head, 20))
        assert len(seen) >= 4  # several distinct orders were exercised

    def test_first_omitted_term_carries_the_remainder(self):
        # stop after the head and one correction: the remainder has the sign
        # and at most the size of the second correction, -(15/720) M_3
        p, c, x0 = 2.0, 0.2, 20.0
        lo, hi = _alternating_reference(c, p, x0, n=400)
        m1 = c * x0 ** -p + p * x0 ** (-p - 1.0)
        m3 = sum(
            math.comb(3, i) * c ** (3 - i) * math.prod(p + j for j in range(i)) * x0 ** (-p - i)
            for i in range(4)
        )
        partial = 0.5 * x0 ** -p + 0.25 * m1
        t2 = -15.0 / 720.0 * m3
        assert t2 - 1e-18 <= lo - partial and hi - partial <= 1e-18
        value, err, done = _boole(_power_phi(p), p, c, x0, 1.0, 0.6 * abs(t2), 0.0)
        assert done and math.isclose(value, partial + 0.5 * t2, rel_tol=1e-14)

    @pytest.mark.parametrize("x0", [2e31, 1e31])
    def test_encloses_where_the_derivatives_underflow(self, x0):
        # at spacing 1e30 the power's derivatives x0^(-1.5-i) leave the normal
        # range from i = 9 on, while hs^i keeps them in the walk: charged
        # relatively, as before, the bound missed by ten times itself at
        # x0 = 2e31 and by nineteen times at 1e31
        mpmath = pytest.importorskip("mpmath")
        c, hs, n = 0.01, 1e30, 12_000
        value, err, _ = _boole(_power_phi(1.5), 1.5, c, x0, hs, 0.0, 0.0)
        with mpmath.workdps(50):
            C, H, X = mpmath.mpf(c), mpmath.mpf(hs), mpmath.mpf(x0)

            def g(t):
                return mpmath.exp(-C * t) * (X + t * H) ** mpmath.mpf(-1.5)

            partial = mpmath.fsum((-1) ** t * g(t) for t in range(n))
            # the terms fall, so the rest lies within the next one
            assert abs(mpmath.mpf(value) - partial) + g(n) <= err
        # the walk stops before an order whose derivative underflowed: kept,
        # each such order's absolute charge times hs^i gave 2.4e-5 and
        # 8.5e-6 of the head, where the stop gives 3.1e-9 and 3.7e-7
        assert err <= 1e-6 * 0.5 * x0 ** -1.5

    @pytest.mark.parametrize("s", [1e-3, 0.01, 0.05, 0.5, 3.0])
    def test_power_phi_meets_its_charge_at_every_order(self, s):
        # (s)_i formed as (s)_(i-1) (s + (i - 1)): in the order
        # (s + i) - 1, (s)_1 = fl(fl(s + 1) - 1) was off by up to 2^-53 and
        # the charge (i + 2) EPS missed 165 times at s = 1e-3.  The reference
        # power takes phi's exponent fl(-s - i) as it is, so this checks the
        # Pochhammer factor, the power and their product
        mpmath = pytest.importorskip("mpmath")
        phi = _power_phi(s)
        with mpmath.workdps(50):
            for x in (1.5, 17.3, 1e3, 2.0 ** 40):
                for i in range(2 * special._EM_MAX_ORDER + 2):
                    v, err = phi(x, i)
                    want = mpmath.rf(mpmath.mpf(s), i) * mpmath.mpf(x) ** mpmath.mpf(-s - i)
                    assert abs(mpmath.mpf(v) - want) <= err, (x, i)


def _damped_zeta_reference(s, sign, c, X, h):
    """sum over j >= 0 of (sign e^-c)^j zeta(s, X + jh) by mpmath at 80
    digits, and the size of the rest it leaves out: the terms fall, so the
    rest lies within the next term, over 1 - e^-c for the plus sign.  Below
    80 digits mpmath.zeta can miss in the 10th digit (at s = 24.62,
    alpha = 380.82 it does at 40 to 60)."""
    import mpmath

    with mpmath.workdps(80):
        S, C, X0, H = map(mpmath.mpf, (s, c, X, h))
        total, j = mpmath.mpf(0), 0
        while True:
            term = mpmath.exp(-C * j) * mpmath.zeta(S, X0 + j * H)
            if j and term < 1e-22 * total:
                return total, (term / -mpmath.expm1(-C) if sign > 0.0 else term)
            total += term if sign > 0.0 or j % 2 == 0 else -term
            j += 1


@pytest.mark.parametrize("kernel, args", [
    # points where the explicit terms' two former stop tests disagreed: the
    # lead-in to Boole stopped at 2 EPS/16 of the gross, the geometric loop
    # at EPS/16; one loop now stops at EPS/16 for both
    ("lerch", (0.8750079227057008, 6.155375030323826, 0.03794396930837797, 3.999975735338947e-15)),
    ("lerch", (-0.9968713323494659, 10.531735901515848, 0.02583713446556375, 4.610396321943674e-19)),
    ("zeta", (9.666547136414746, 1.0, 0.013730391736559835, 0.16123440447940068,
              0.022028297650820816, 5.771822123353346e-15)),
    ("zeta", (15.09898203775909, -1.0, 0.018072197721534893, 0.25816790926147404,
              0.09134596047631664, 2.1455911242739896e-21)),
])
def test_one_stop_rule_encloses_against_mpmath(kernel, args):
    mpmath = pytest.importorskip("mpmath")
    if kernel == "lerch":
        value, bound = _lerch_core(*args)
        # lerchphi can miss in the 9th digit at 50 digits (z near 1, large
        # alpha): the distance to its 80-digit value is charged to it
        at = [mpmath.workdps(d)(mpmath.lerchphi)(*map(mpmath.mpf, args[:3])) for d in (80, 50)]
        ref, rest = at[0], abs(at[0] - at[1])
    else:
        value, bound = _damped_zeta(*args)
        ref, rest = _damped_zeta_reference(*args[:5])
    assert abs(mpmath.mpf(value) - ref) + rest <= bound
    assert bound <= 2e3 * EPS * abs(value)


class TestPhiMemo:
    """Plus-sign halving levels share lattice points: _damped_zeta evaluates
    each once per call, and keeps nothing from one call to the next."""

    ARGS = (3.0, 1.0, 1e-3, 1.7, 0.3, 1e-12)

    @staticmethod
    def _count_kernel_calls(monkeypatch):
        calls = []
        kernel = special._hurwitz_core

        def counted(s, x):
            calls.append((s, x))
            return kernel(s, x)

        monkeypatch.setattr(special, "_hurwitz_core", counted)
        return calls

    def test_no_point_is_evaluated_twice(self, monkeypatch):
        # without the memo, 86 of 309 calls repeat an (s, x)
        calls = self._count_kernel_calls(monkeypatch)
        _damped_zeta(*self.ARGS)
        assert len(calls) == len(set(calls))

    def test_no_state_outlives_a_call(self, monkeypatch):
        calls = self._count_kernel_calls(monkeypatch)
        first = _damped_zeta(*self.ARGS)
        n = len(calls)
        assert _damped_zeta(*self.ARGS) == first
        assert len(calls) == 2 * n


def _zeta_phi(s):
    """The phi of _damped_zeta at one point, without its order-0 memo."""
    rising = special._rising(s)

    def phi(x, i):
        p = rising(i)
        v, b = _hurwitz_core(s + i, x)
        return p * v, p * b + i * EPS * p * v

    return phi


class TestBooleOrders:
    """At c = 0, M_m = hs^m |F^(m)(x0)|: every lower order has weight
    binom(m, i) c^(m - i) = 0, so Boole's walk forms order 0 (its head) and
    the odd orders only, with the bits of the walk that formed them all."""

    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_orders_formed(self, c):
        # trunc = ref = 0: the walk runs until a correction stops shrinking
        orders, phi = [], _power_phi(1.5)

        def recorded(x, i):
            orders.append(i)
            return phi(x, i)

        _boole(recorded, 1.5, c, 20.0, 1.0, 0.0, 0.0)
        last = orders[-1]
        assert last >= 9  # the walk went past its fourth correction
        if c == 0.0:
            assert orders == [0] + list(range(1, last + 1, 2))
        else:
            assert orders == list(range(last + 1))

    def test_damped_zeta_at_c_zero_asks_for_no_even_exponent(self, monkeypatch):
        exponents = set()
        kernel = special._hurwitz_core

        def recorded(s, x):
            exponents.add(s)
            return kernel(s, x)

        monkeypatch.setattr(special, "_hurwitz_core", recorded)
        s = 2.5
        even = {s + i for i in range(2, 2 * special._EM_MAX_ORDER + 2, 2)}
        _damped_zeta(s, -1.0, 0.0, 1.3, 0.7, 0.0)
        assert s + 1 in exponents and s + 3 in exponents and not exponents & even
        # damped, the walk needs them: the check above can fail
        _damped_zeta(s, -1.0, 0.1, 1.3, 0.7, 0.0)
        assert exponents & even

    # _boole(_zeta_phi(s), s, 0.0, x0, hs, 0.0, 0.0) as float.hex (value,
    # err, done), recorded while the walk formed every order.  x0/hs passes
    # 15 + 1.7 s, as where _lattice_sum starts Boole, and the sum lies below
    # 2^-1022.  Order 3 is normal but order 2 was not, which stopped the old
    # walk: a stop on order 3 alone went on and gave bounds 2^23, 2^21 and
    # 2^10 times wider.  The floor x0 F^(3)/(s + 2) of order 2 keeps the stop
    _EVEN_ORDER_STOPS = {
        (157.79519882995433, 89.92509195303693, 0.2874554391751744):
            ("0x0.2632a3d69af72p-1022", "0x1.430f55df69c4bp-1018", False),
        (150.2587140531706, 112.35612894296165, 0.24932527814222855):
            ("0x0.4051d69f1e1f9p-1022", "0x1.30e0fbc204816p-1018", False),
        (181.86036658224407, 50.14161941859064, 0.05722677781068508):
            ("0x0.03f02a41341d0p-1022", "0x1.08734a9874fa0p-1020", False),
    }

    @pytest.mark.pin
    @pytest.mark.parametrize("s, x0, hs", sorted(_EVEN_ORDER_STOPS))
    def test_unformed_even_order_still_stops_the_walk(self, s, x0, hs):
        value, err, done = _boole(_zeta_phi(s), s, 0.0, x0, hs, 0.0, 0.0)
        assert (value.hex(), err.hex(), done) == self._EVEN_ORDER_STOPS[s, x0, hs]


# c = 0 Boole paths that no benchmark digest covers, as float.hex recorded
# while Boole's walk formed every derivative order.  lerch_phi at z = -1:
# (s, alpha, tol) -> the value, and _lerch_core's bound at lerch_phi's target
_LERCH_MINUS_ONE_GOLDEN = {
    (1.5, 0.3, 1e-12): ("0x1.662d9418af6b4p+2", "0x1.4a852cab944e8p-45"),
    (3.0, 1.0, 1e-13): ("0x1.cd9700768093ap-1", "0x1.9916483019692p-49"),
    (7.25, 17.5, 1e-15): ("0x1.41a54f7cc7b61p-31", "0x1.65b84b43bab4cp-53"),
    (20.0, 2.75, 1e-14): ("0x1.c058cb7fdad0ap-30", "0x1.71541acea1bf0p-52"),
    (1.04, 250.0, 1e-12): ("0x1.a543ac32e568dp-10", "0x1.043b332da9ad3p-51"),
}


@pytest.mark.pin
@pytest.mark.parametrize("s, alpha, tol", sorted(_LERCH_MINUS_ONE_GOLDEN))
def test_lerch_at_minus_one_keeps_its_bits(s, alpha, tol):
    value_hex, bound_hex = _LERCH_MINUS_ONE_GOLDEN[s, alpha, tol]
    assert lerch_phi(-1.0, s, alpha, Tolerance(tol)).hex() == value_hex
    value, bound = _lerch_core(-1.0, s, alpha, 0.9 * tol)
    assert (value.hex(), bound.hex()) == (value_hex, bound_hex)


# kappa_ab_alt_transformed, whose tail is the c = 0 damped zeta sum:
# (s, a, b, tol, stop) -> (value, terms_used, tail_bound)
_ALT_TRANSFORMED_GOLDEN = {
    (1.5, 1.0, 1.0, 1e-10, "EARLIEST"): ("0x1.b052a7336e311p+0", 1, "0x1.38140e28dcac0p-39"),
    (2.0, 0.5, 1.5, 1e-11, "EARLIEST"): ("0x1.20adf9ba16e42p-1", 1, "0x1.4b97da716cc5fp-44"),
    (4.0, 0.1, 1.0, 1e-12, "EARLIEST"): ("0x1.48f0d810a0a68p-1", 1, "0x1.0bf67d9f53287p-44"),
    (4.0, 0.1, 1.0, 1e-12, "TERM_FLOOR"): ("0x1.48f0d810a09a6p-1", 644, "0x1.4cc2cfad1822ep-44"),
    (3.3, 2.7, 0.45, 1e-13, "EARLIEST"): ("0x1.c92f40b4c426bp+3", 1, "0x1.d7d833f7dc1dcp-46"),
    (1.2, 0.03, 0.9, 1e-9, "EARLIEST"): ("0x1.7476a9012b3ebp+1", 1, "0x1.eb51cdd253006p-44"),
}


@pytest.mark.pin
@pytest.mark.parametrize("s, a, b, tol, stop", sorted(_ALT_TRANSFORMED_GOLDEN))
def test_alternating_transformation_keeps_its_bits(s, a, b, tol, stop):
    r = kappa_ab_alt_transformed(s, a, b, Tolerance(tol), stop=StopRule[stop])
    got = (r.value.hex(), r.terms_used, r.tail_bound.hex())
    assert got == _ALT_TRANSFORMED_GOLDEN[s, a, b, tol, stop]


def test_exact_lattice_origin_is_charged_once():
    # X is past Boole's start and c = 0: Boole runs from X itself with weight
    # e^-0 = 1, so neither is rounded.  Charging them anyway gave a width of
    # 9.09 EPS |value|, and each of the two charges alone about 8
    mpmath = pytest.importorskip("mpmath")
    value, bound = _damped_zeta(1.04, -1.0, 0.0, 102.4, 2.73, 0.0)
    assert bound < 7.5 * EPS * abs(value)
    ref, ref_err = laplace_affine_sum(1.04, 2.73, 102.4, Sign.MINUS)
    assert abs(mpmath.mpf(value) - ref) <= bound + ref_err


@pytest.mark.pin
def test_boole_sums_do_not_depend_on_the_python_version():
    # builtin sum() of floats is compensated from Python 3.12 on; Boole's
    # correction sums are plain left-to-right sums on every version, so this
    # direct bound has the same last bit everywhere (3.12's sum() gave ...6e)
    spec = SumSpec(
        family=Family.EXP_WEIGHTED,
        s=float.fromhex("0x1.ffeb647cddfd8p+0"),
        a=float.fromhex("0x1.cd6dbbaaa9e18p-4"),
        b=float.fromhex("0x1.25075078feccbp-1"),
        c=float.fromhex("0x1.507fdf80bb15ep-3"),
        sign=Sign.PLUS,
        tol=Tolerance(float.fromhex("0x1.5fc12cff34fb5p-28")),
    )
    r = eval_direct(spec, stop=StopRule.EARLIEST)
    assert (r.value.hex(), r.terms_used, r.tail_bound.hex()) == (
        "0x1.94e2a20ec0408p+3", 1, "0x1.8346b3c960d14p-33",
    )


def _check_lerch_against_bracket(c, sign, s, alpha):
    z = sign * math.exp(-c)
    value, bound = _lerch_core(z, s, alpha, 0.0)
    n = math.ceil(40.0 / c)
    lo, hi = sandwich_lerch(z, s, alpha, n)
    # the bracket's own rounding: n powers and the fsum, relative to the
    # gross of the partial sum
    gross = math.fsum(abs(z) ** k * (k + alpha) ** -s for k in range(n))
    pad = (s + 4.0) * EPS * gross
    assert lo - bound - pad <= value <= hi + bound + pad
    assert bound <= 2e3 * EPS * abs(value)


class TestLerchKernel:
    @pytest.mark.parametrize("c", [1e-3, 1e-2, 0.1, 0.7, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("s, alpha", [(0.5, 1.7), (1.5, 0.05), (3.0, 30.0), (8.0, 1.7)])
    def test_against_partial_sum_bracket(self, c, sign, s, alpha):
        _check_lerch_against_bracket(c, sign, s, alpha)

    @pytest.mark.parametrize("sign, c, s, alpha", [
        # Boole's first start misses EPS/16 here; the explicit terms double
        (-1.0, 0.430642458795947, 0.6233819090436112, 19.2146697672537),
        (1.0, 0.010386463630907295, 6.629765444562339, 1143.3897240855797),
    ])
    def test_retry_path_encloses(self, sign, c, s, alpha):
        _check_lerch_against_bracket(c, sign, s, alpha)

    @pytest.mark.parametrize("z", [math.exp(-1e-6), -math.exp(-1e-6)])
    def test_cost_does_not_grow_with_one_over_c(self, z):
        start = time.perf_counter()
        value, bound = _lerch_core(z, 3.0, 2.0, 1e-12)
        assert time.perf_counter() - start < 0.5
        assert bound <= 1e-12


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _route(direct, s, a, b, c, sign, tol):
    if direct:
        spec = SumSpec(family=Family.EXP_WEIGHTED, s=s, a=a, b=b, c=c, sign=sign, tol=tol)
        return eval_direct(spec)
    return s_pm_transformed(s, a, b, c, sign, tol)


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "transformed"])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS], ids=["plus", "minus"])
@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    c=_log_uniform(1e-4, 2.0),
    s=st.floats(1.01, 6.0, exclude_min=True),
    a=st.floats(0.1, 2.0),
    b=st.floats(0.5, 2.0),
    tol=_log_uniform(1e-12, 1e-6),
)
def test_enclosure_against_laplace_route(direct, sign, c, s, a, b, tol):
    try:
        r = _route(direct, s, a, b, c, sign, Tolerance(tol))
    except DomainError as exc:
        # a request past double precision fails typed; nothing to check
        assert "unattainable" in str(exc)
        return
    assert r.tail_bound <= tol
    target = max(0.01 * tol, 100.0 * EPS * abs(r.value))
    ref, ref_err = quad_family_sum(s, a, b, c, sign, target=target)
    assert abs(r.value - ref) <= r.tail_bound + ref_err


def test_laplace_reference_error_covers_its_rounding():
    # near s = 1 with c << a the rule settles far below one ulp of the value:
    # a refinement-only estimate said 3.6e-20 where the value is 5.6e-13 off
    mpmath = pytest.importorskip("mpmath")
    s, a, b, c = 1.02, 0.1, 0.5, 0.02
    value, err = quad_family_sum(s, a, b, c, Sign.PLUS, target=1e-13)
    # at 80 digits, where mpmath.zeta no longer misses (see _damped_zeta_reference)
    with mpmath.workdps(80):
        S, A, B, C = map(mpmath.mpf, (s, a, b, c))
        # the terms from k = 2300 on add less than 1e-16
        ref = mpmath.fsum(mpmath.exp(-C * k) * mpmath.zeta(S, k * A + B) for k in range(2300))
        assert abs(mpmath.mpf(value) - ref) <= err


@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
@pytest.mark.parametrize("direct", [True, False], ids=["direct", "transformed"])
@pytest.mark.parametrize("c", [50.0, 700.0])
def test_large_c_where_the_weight_underflows(direct, sign, c):
    # e^(-16c) is below every double: the direct tail is 0, both routes agree
    r = _route(direct, 3.0, 0.5, 1.0, c, sign, Tolerance(1e-10))
    assert abs(r.value - 1.2020569031595942) <= r.tail_bound + 1e-15


@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
@pytest.mark.parametrize("direct", [True, False], ids=["direct", "transformed"])
def test_small_c_in_bounded_time(direct, sign):
    start = time.perf_counter()
    r = _route(direct, 3.0, 0.5, 1.0, 1e-6, sign, Tolerance(1e-10))
    assert time.perf_counter() - start < 2.0
    assert r.tail_bound <= 1e-10
    if direct:
        assert r.terms_used == 1  # the check at term 1 fits


@pytest.mark.parametrize("K", [5, 6])
def test_minus_sign_tail_steps_by_one_signed_term(K):
    # tail(K) - tail(K + 1) is term K, (-1)^K e^(-cK) zeta(s, K a + b): at odd
    # K the tail must carry the sign (-1)^K itself, and at even K + 1 too
    sp = SumSpec(family=Family.EXP_WEIGHTED, s=2.5, a=0.7, b=1.3, c=0.05,
                 sign=Sign.MINUS, tol=Tolerance(1e-10))
    v0, b0 = _damped_tail(sp, K, 1e-13)
    v1, b1 = _damped_tail(sp, K + 1, 1e-13)
    z, zb = _hurwitz_core(sp.s, K * sp.a + sp.b)
    pre = math.exp(-sp.c * K)
    want = (-1.0) ** K * pre * z
    slack = 8.0 * EPS * (abs(v0) + abs(v1) + abs(want)) + sp.s * EPS * abs(want)
    assert abs((v0 - v1) - want) <= b0 + b1 + pre * zb + slack
    assert abs(want) > 100.0 * (b0 + b1 + slack)  # a flipped sign cannot pass


class TestTermFloor:
    @pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
    def test_near_one_ends_in_bounded_time(self, sign):
        # |z| = e^-1e-6: the Lerch floor count exists, and each kernel call
        # costs O(log 1/c), so the run ends well inside 5 s
        start = time.perf_counter()
        try:
            r = s_pm_transformed(
                3.0, 0.5, 1.0, 1e-6, sign, Tolerance(1e-8), stop=StopRule.TERM_FLOOR
            )
        except TermBudgetError:
            pass
        else:
            assert r.tail_bound <= 1e-8
        assert time.perf_counter() - start < 5.0

    def test_kernel_target_sized_from_lerch_count(self, monkeypatch):
        # the zeta floor count here is 2e14 and would ask every Lerch call for
        # 2.8e-24; the Lerch count is 173 850 (173 315 before its refinement)
        import zetasums.transforms as tr

        seen = []

        def probe(z, s, alpha, target):
            seen.append(target)
            raise RuntimeError("stop after the first call")

        monkeypatch.setattr(tr, "_lerch_core", probe)
        with pytest.raises(RuntimeError):
            tr.s_pm_transformed(1.5, 0.5, 1.0, 0.05, Sign.PLUS, Tolerance(1e-8),
                                stop=StopRule.TERM_FLOOR)
        count = tr._lerch_floor_count(math.exp(-0.05), 1.5, 0.5, 1.0, 1e-7)
        assert 1.7e5 <= count <= 1.8e5
        assert seen[0] == pytest.approx(0.8 * 0.2 * 1e-8 / (2 * count) * 0.5 ** 1.5)

    @pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
    def test_z_underflowing_to_zero(self, sign):
        # e^-800 is 0.0: the Lerch value is its first term, the count exists
        r = s_pm_transformed(3.0, 0.5, 1.0, 800.0, sign, Tolerance(1e-8),
                             stop=StopRule.TERM_FLOOR)
        assert abs(r.value - 1.2020569031595942) <= r.tail_bound + 1e-15

    @pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
    def test_lerch_sized_targets_still_certify(self, sign):
        # a smaller request of the same kind: the zeta count is 2e10, the
        # Lerch counts 2 006 (plus) and 785 (minus)
        r = s_pm_transformed(1.5, 0.5, 1.0, 0.5, sign, Tolerance(1e-6),
                             stop=StopRule.TERM_FLOOR)
        assert r.tail_bound <= 1e-6


def test_tail_checks_thin_out_when_the_tail_is_slow_to_fit():
    # a tail that never fits and terms whose error trips the "unattainable"
    # test past n = 10 000: after the one check at term 1 the checks grow
    # apart, O(log n) of them.  The tail's width is infinite, so the far
    # probe never runs
    from zetasums.sums import Method, _run_series

    checks = []

    def tail(n):
        checks.append(n)
        return 0.0, math.inf

    with pytest.raises(DomainError, match="unattainable"):
        _run_series(lambda n: (0.0, 5e-5, 1.0), tail, 1.0, StopRule.EARLIEST,
                    Method.DIRECT, None, "over budget".format)
    assert checks[:8] == [1, 16, 24, 32, 40, 48, 56, 64]
    assert checks[-1] >= 10_000 and len(checks) < 100


class TestFloorLimitedTail:
    def test_unattainable_transformed_request_fails_at_once(self):
        # the sum is ~6e10, so its rounding floor alone exceeds tol 4.1e-4,
        # at every term the budget allows
        start = time.perf_counter()
        with pytest.raises(DomainError, match="unattainable"):
            s_pm_transformed(1.1164371348196442, 417275.59544807306, 0.015918790709579567,
                             1.335810668911782e-12, Sign.PLUS, Tolerance(0.0004103917806333003))
        assert time.perf_counter() - start < 1.0

    def test_floor_count_near_s_one_uses_the_integral_bound(self, monkeypatch):
        # Phi ~ x^(1-s)/(s-1) near s = 1: the integral bound puts the crossing
        # past 1e5 terms, so a budget of 20 000 refuses the request up front
        import zetasums.transforms as tr

        args = (1.0131496697486573, 1.6258128756267017e-05, 0.009650325295872581)
        assert tr._lerch_floor_count(math.exp(-3.581466152342696e-12), *args, 0.89) > 1e5
        monkeypatch.setenv("ZS_TERM_BUDGET", "20000")
        start = time.perf_counter()
        with pytest.raises(TermBudgetError):
            s_pm_transformed(*args, 3.581466152342696e-12, Sign.PLUS,
                             Tolerance(0.08899981033115792), stop=StopRule.TERM_FLOOR)
        assert time.perf_counter() - start < 1.0
