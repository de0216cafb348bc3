"""Closed forms: finite combinations of zeta values with exact rational weights.

A ZetaCombination is the symbolic object (exact Fractions, integer shifts of
the exponent, optional 2^-s prefactor per term); the *_closed functions
evaluate the matching combination at a concrete exponent with a certified
budget.  The moment families' exact tail builders live here, with the
power-sum and Euler polynomials they are built from: past K terms they are
the direct route's tails, and at K = 0 the closed forms.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import truediv

from .errors import DomainError
from .special import (
    BOUNDARY_MARGIN,
    Tolerance,
    bernoulli_fraction,
    _certified,
    _require_positive,
    _require_tol,
    _sum_terms,
)

__all__ = [
    "ZetaTerm", "ZetaCombination", "eulerian_polynomial", "faulhaber_coeffs",
    "kappa_combination", "kappa_alt_combination", "shifted_combination",
    "shifted_alt_combination", "moment_combination", "moment_alt_combination",
    "even_arg_moment_combination", "kappa_closed", "kappa_alt_closed", "shifted_closed",
    "shifted_alt_closed", "moment_closed", "moment_alt_closed", "even_arg_moment_closed",
    "combination_split",
]

_M_MAX = 12


def _require_m(m, name, lo=0):
    if not isinstance(m, int) or m < lo or m > _M_MAX:
        raise DomainError(f"{name} requires integer m in [{lo}, {_M_MAX}]")


class ZetaTerm(namedtuple("ZetaTerm", "coefficient s_shift alpha two_pow_neg_s")):
    """coefficient * [2^-s if two_pow_neg_s] * zeta(s - s_shift, alpha);
    alpha = 1 is Riemann's zeta."""

    __slots__ = ()

    def __new__(cls, coefficient, s_shift, alpha=1.0, two_pow_neg_s=False):
        if not isinstance(coefficient, Fraction):
            raise DomainError("term coefficient must be a Fraction")
        if coefficient == 0:
            raise DomainError("term coefficient must be nonzero")
        if not isinstance(s_shift, int) or s_shift < 0:
            raise DomainError("s_shift must be a nonnegative integer")
        _require_positive(alpha, "ZetaTerm")
        return tuple.__new__(cls, (coefficient, s_shift, alpha, two_pow_neg_s))


class ZetaCombination(namedtuple("ZetaCombination", "terms")):
    __slots__ = ()

    def __new__(cls, terms):
        if not terms:
            raise DomainError("combination must contain at least one term")
        for t in terms:
            if not isinstance(t, ZetaTerm):
                raise DomainError("combination entries must be ZetaTerm")
        return tuple.__new__(cls, (terms,))

    def evaluate_with_bound(self, s, tol):
        """(value, certified_bound) at exponent s; every shifted exponent must
        stay inside the zeta domain s - shift > 1."""
        _require_tol(tol)
        if not math.isfinite(s):
            raise DomainError("s must be finite")
        shift = max(t.s_shift for t in self.terms)
        if s - shift - 1.0 <= BOUNDARY_MARGIN:
            raise DomainError(f"combination needs s > {shift + 1}, got s = {s}")
        value, bound = _sum_terms(s, getattr(self.terms, "rows", self.terms))
        return _certified(value, bound, tol, "this combination"), bound

    def evaluate(self, s, tol):
        return self.evaluate_with_bound(s, tol)[0]


# ---------------------------------------------------------------------------
# Coefficient families.

def eulerian_polynomial(m):
    """Eulerian numbers A(m, 0..m-1) as a tuple of ints."""
    _require_m(m, "eulerian_polynomial", lo=1)
    row = [1]
    for k in range(2, m + 1):
        prev = row
        row = [0] * k
        for j in range(k):
            left = (j + 1) * prev[j] if j < len(prev) else 0
            right = (k - j) * prev[j - 1] if j - 1 >= 0 else 0
            row[j] = left + right
    return tuple(row)


def faulhaber_coeffs(m):
    """(offset, coeffs) of the polynomial equal to sum(k^m, k=1..n): coeffs
    is a tuple of Fractions, coeffs[i] attached to n^(offset + i).

    Leading zero powers are trimmed into the offset, e.g. m = 3 gives
    offset 2 with coefficients (1/4, 1/2, 1/4); the top one, 1/(m+1), is
    never zero.
    """
    _require_m(m, "faulhaber_coeffs")
    coeffs = _faulhaber_fracs(m)
    offset = next(i for i, c in enumerate(coeffs) if c)
    return offset, coeffs[offset:]


# The tables below are built once per m, for an m that _require_m has already
# passed: in front of it, a cache would answer m = 2.0 with m = 2's entry.

@lru_cache(maxsize=None)
def _faulhaber_fracs(m):
    """The same polynomial as faulhaber_coeffs as a dense tuple, powers 0 .. m+1."""
    deg = m + 1
    poly = [Fraction(0)] * (deg + 1)
    for k in range(deg + 1):
        c = Fraction(math.comb(deg, k)) * bernoulli_fraction(k)
        for i in range(deg - k + 1):
            poly[i] += c * math.comb(deg - k, i)
    # remove the constant so the polynomial vanishes at n = 0
    poly[0] -= sum(Fraction(math.comb(deg, k)) * bernoulli_fraction(k) for k in range(deg + 1))
    return tuple(c / deg for c in poly)


@lru_cache(maxsize=None)
def _euler_tables(m):
    """(E_m(x), E_m(x + 1)) coefficients, ascending powers, exact."""
    coeffs = [Fraction(1)]
    for k in range(1, m + 1):
        integ = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]
        poly = [Fraction(k) * c for c in integ]
        # constant fixed by E_k(0) = 2(1 - 2^(k+1)) B_{k+1} / (k+1)
        poly[0] = Fraction(2 * (1 - 2 ** (k + 1))) * bernoulli_fraction(k + 1) / (k + 1)
        coeffs = poly
    shifted = tuple(sum(coeffs[d] * math.comb(d, i) for d in range(i, m + 1))
                    for i in range(m + 1))
    return tuple(coeffs), shifted


# ---------------------------------------------------------------------------
# The moment families' exact tails past K terms, as (coefficient, shift,
# alpha, two_pow_neg_s) terms: exact, with Fraction coefficients, at K = 0
# they are the closed forms; with float ones, the direct route sums them at K.

@lru_cache(maxsize=None)
def _tail_coeffs(m, p, q, scale=1, exact=False):
    """The K-independent parts of the tail past K of sum(n^m (p + q (-1)^(n-1))
    zeta(s, n), n >= 1) / scale: sum(n > K) n^-s (W(n) - W(K)), with W(n) =
    (p S_m(n) + q (-1)^(n-1) E_m(n + 1)/2) / scale, S_m the power-sum and E_m
    the Euler polynomial.  Returns (den, P, Q, rest, ratio): -W(K) is
    ratio(P(K) + (-1)^K Q(K + 1), den), P and Q ascending integers; rest
    holds S_m's c_d zeta(s - d, K + 1), and E_m(x + 1)'s e_d 2^(d-1) 2^-s
    zeta(s - d, .) over odd n minus even n, on lattice 0 (K + 1), 1 and 2
    (the odd and even half lattice).  Unless exact, the coefficients are
    float() of the exact ones, converted here once: ratio is then int / int
    true division, which rounds as float() of the Fraction does."""
    if not exact:
        den, P, Q, rest, _ = _tail_coeffs(m, p, q, scale, True)
        return den, P, Q, tuple((float(c), d, i, flag) for c, d, i, flag in rest), truediv
    p, q = Fraction(p, scale), Fraction(q, scale)
    dense = _faulhaber_fracs(m)
    e_poly, shifted = _euler_tables(m)
    P = [-p * c for c in dense] if p else []
    Q = [q * c / 2 for c in e_poly] if q else []
    den = math.lcm(*(c.denominator for c in P + Q))
    rest = [(p * c, d, 0, False) for d, c in enumerate(dense) if p and c]
    for d, c in enumerate(shifted):
        w = q * c * 2 ** d / 2
        if w:
            rest += [(w, d, 1, True), (-w, d, 2, True)]
    P, Q = (tuple(int(c * den) for c in poly) for poly in (P, Q))
    return den, P, Q, tuple(rest), Fraction


def _tail_terms(K, den, P, Q, rest, ratio):
    """The tail past K from _tail_coeffs' parts, as a tuple of term tuples,
    zeta(s, K + 1)'s coefficient computed in integers."""
    c0 = ratio(sum(c * K ** d for d, c in enumerate(P))
               + (-1) ** K * sum(c * (K + 1) ** d for d, c in enumerate(Q)), den)
    x = (K + 1.0, (K + 1) // 2 + 0.5, K // 2 + 1.0)
    terms = tuple((c, d, x[i], flag) for c, d, i, flag in rest)
    return ((c0, 0, x[0], False),) + terms if c0 else terms


# The builders are cached per (m, K, exact), m past _require_m (see above):
# every tail check at one K, and _closed at K = 0, reads one shared tuple.
# Bounded, as a failed check's far probe asks for K at the term budget.

@lru_cache(maxsize=256)
def _moment_terms(m, K, exact=False):
    """Exact tail of sum(k^m zeta(s, k), k > K), cached; m = 0 is kappa."""
    return _tail_terms(K, *_tail_coeffs(m, 1, 0, 1, exact))


@lru_cache(maxsize=256)
def _moment_alt_terms(m, K, exact=False):
    """Exact tail of sum((-1)^(k-1) k^m zeta(s, k), k > K), cached; m = 0 is kappa-alt."""
    return _tail_terms(K, *_tail_coeffs(m, 0, 1, 1, exact))


@lru_cache(maxsize=256)
def _even_arg_terms(m, K, exact=False):
    """Exact tail of sum(k^m zeta(s, 2k), k > K), cached: 2^(-m-1) times the
    plain moment tail past 2K minus the alternating one, as k^m is
    2^(-m-1) (1 - (-1)^(n-1)) n^m at n = 2k, and that weight is 0 at odd n."""
    return _tail_terms(2 * K, *_tail_coeffs(m, 1, -1, 2 ** (m + 1), exact))


# zeta(s - d), 2^-s zeta(s - d) and 2^-s zeta(s - d, 1/2): the terms at K = 0
_AT_ZERO = ((1.0, False), (1.0, True), (0.5, True))


class _Terms(tuple):
    """A cached combination's terms; rows holds them with float coefficients."""


@lru_cache(maxsize=None)
def _closed(build, m):
    """build's exact tail at K = 0 in its fewest terms, as a ZetaCombination:
    like terms merged exactly, then at each shift d the coefficients (C, B, A)
    of _AT_ZERO moved along 2^-s zeta(s - d, 1/2) = 2^-d zeta(s - d) -
    2^-s zeta(s - d) to (C - t 2^-d, B + t, A + t) for the t in
    (0, -A, -B, C 2^d) that leaves the fewest nonzero, the first on a tie."""
    merged = {}
    for c, d, alpha, flag in build(m, 0, exact=True):
        merged[d, alpha, flag] = merged.get((d, alpha, flag), 0) + c
    terms = []
    for d in sorted({key[0] for key in merged}):
        c, b, a = (merged.get((d, *form), Fraction(0)) for form in _AT_ZERO)
        best = min(
            ((c - Fraction(t, 2 ** d), b + t, a + t) for t in (0, -a, -b, c * 2 ** d)),
            key=lambda cba: sum(map(bool, cba)),
        )
        terms += [ZetaTerm(w, d, *form) for w, form in zip(best, _AT_ZERO) if w]
    terms = _Terms(terms)
    # converted once for _sum_terms: float() of a Fraction rounds exactly
    terms.rows = tuple((float(c), d, alpha, flag) for c, d, alpha, flag in terms)
    return ZetaCombination(terms)


def kappa_combination():
    """sum over k >= 1 of zeta(s, k)  ==  zeta(s-1): the m = 0 moment sum."""
    return moment_combination(0)


def kappa_alt_combination():
    """sum over k >= 1 of (-1)^(k-1) zeta(s, k)  ==  (1 - 2^-s) zeta(s)
    ==  2^-s zeta(s, 1/2): the m = 0 alternating moment sum."""
    return moment_alt_combination(0)


def shifted_combination(a):
    """sum over k >= 0 of zeta(s, k+a)  ==  zeta(s-1, a) + (1-a) zeta(s, a)."""
    _require_positive(a, "shifted_combination", "a")
    terms = [ZetaTerm(Fraction(1), 1, float(a))]
    lin = 1 - Fraction(a)
    if lin != 0:
        terms.append(ZetaTerm(lin, 0, float(a)))
    return ZetaCombination(tuple(terms))


def shifted_alt_combination(a):
    """sum over k >= 0 of (-1)^k zeta(s, k+a)  ==  2^-s zeta(s, a/2)."""
    _require_positive(a, "shifted_alt_combination", "a")
    return ZetaCombination((ZetaTerm(Fraction(1), 0, float(a) / 2.0, two_pow_neg_s=True),))


def moment_combination(m):
    """sum over k >= 1 of k^m zeta(s, k) as zeta values at shifted exponents.

    The weight polynomial sum(j^m, j<=n) supplies the coefficients: the k^m
    weighted sum telescopes into sum_d c_d zeta(s-d) over its powers.
    """
    _require_m(m, "moment_combination")
    return _closed(_moment_terms, m)


def moment_alt_combination(m):
    """sum over k >= 1 of (-1)^(k-1) k^m zeta(s, k), its coefficients from the
    Euler polynomial E_m; m = 0 is kappa-alt."""
    _require_m(m, "moment_alt_combination")
    return _closed(_moment_alt_terms, m)


def even_arg_moment_combination(m):
    """sum over k >= 1 of k^m zeta(s, 2k): 2^(-m-1) (plain - alternating moment sum)."""
    _require_m(m, "even_arg_moment_combination")
    return _closed(_even_arg_terms, m)


# ---------------------------------------------------------------------------
# Value-level wrappers.

_DEFAULT_CLOSED_TOL = Tolerance(1e-12)


def kappa_closed(s, *, tol=_DEFAULT_CLOSED_TOL):
    return kappa_combination().evaluate(s, tol)


def kappa_alt_closed(s, *, tol=_DEFAULT_CLOSED_TOL):
    return kappa_alt_combination().evaluate(s, tol)


def shifted_closed(s, a, *, tol=_DEFAULT_CLOSED_TOL):
    return shifted_combination(a).evaluate(s, tol)


def shifted_alt_closed(s, a, *, tol=_DEFAULT_CLOSED_TOL):
    return shifted_alt_combination(a).evaluate(s, tol)


def moment_closed(s, m, *, tol=_DEFAULT_CLOSED_TOL):
    return moment_combination(m).evaluate(s, tol)


def moment_alt_closed(s, m, *, tol=_DEFAULT_CLOSED_TOL):
    return moment_alt_combination(m).evaluate(s, tol)


def even_arg_moment_closed(s, m, *, tol=_DEFAULT_CLOSED_TOL):
    return even_arg_moment_combination(m).evaluate(s, tol)


def combination_split(s, m, *, tol=_DEFAULT_CLOSED_TOL):
    """(difference_route, direct_route): the half-difference of the plain and
    alternating moment closed forms, and the even-argument closed form.  Both
    come from the exact tail builders at K = 0; the independent check of the
    identity is the direct route (check_identity's even-m1 and even-m2,
    tests/test_family_soundness.py)."""
    _require_tol(tol)
    half = Tolerance(tol.abs_tol * 0.5)
    plain = moment_closed(s, m, tol=half)
    alt = moment_alt_closed(s, m, tol=half)
    via_diff = 2.0 ** (-m - 1) * (plain - alt)
    direct = even_arg_moment_closed(s, m, tol=half)
    return via_diff, direct
