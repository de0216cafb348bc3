"""Direct evaluation of infinite zeta-value sums with certified tail enclosures.

Every family is a sum over k of weight(k) * zeta(s, arg(k)).  The evaluator
adds explicit terms, then encloses the remainder: integer-lattice families by
exact telescoped tail identities, unit lattices by the shifted sum's exact
identity, affine lattices by Euler-Maclaurin over the lattice with an
enveloping remainder, alternating unit lattices by
the exact half-lattice identity, and alternating affine and exponentially
weighted lattices by Boole summation and lattice halving
(special._damped_lattice, at c = 0 for the alternating ones).  tail_bound
is the full certified error: enclosure half-width plus accumulated per-term
evaluation error plus rounding slop.

_RULES holds one row per family; _run_series is the package's one series
loop, shared by the direct route, the reciprocal-lattice transformations and
lerch_phi at s <= 0.
"""

import math
from collections import namedtuple
from enum import Enum

from .closed import (
    _even_arg_terms,
    _moment_alt_terms,
    _moment_terms,
    _M_MAX,
    _require_m,
    even_arg_moment_combination,
    moment_alt_combination,
    moment_combination,
    shifted_alt_combination,
    shifted_combination,
)
from .errors import DomainError, NoClosedFormError, TermBudgetError, UnattainableError
from .special import (
    BOUNDARY_MARGIN,
    EPS,
    Tolerance,
    fp_slop,
    hurwitz_zeta,
    term_budget,
    _EM_C,
    _EM_MAX_ORDER,
    _UNATTAINABLE,
    _certified,
    _damped_zeta,
    _held,
    _hurwitz_core,
    _lerch_core,
    _poch_raw,
    _require_positive,
    _require_s,
    _require_tol,
    _sum_terms,
    _tail_bound,
)

__all__ = [
    "MIN_EXPLICIT", "Family", "Sign", "Method", "StopRule", "convergence_threshold", "SumSpec",
    "SumResult", "floor_crossing_arg", "lerch_phi", "eval_direct",
]

# the direct route checks its tail once at term 1, then from this term on
# every _CHUNK terms; the "unattainable" refusal at half of tol waits for it
# too, as one term's charge can exceed half of tol and still fit later
MIN_EXPLICIT = 16
_CHUNK = 8

_TAIL_FRACTION = 0.45


class Family(Enum):
    __hash__ = object.__hash__  # C hash by identity, as members compare: a fast table key
    KAPPA = "kappa"
    KAPPA_ALT = "kappa-alt"
    MOMENT = "moment"
    MOMENT_ALT = "moment-alt"
    EVEN_ARG_MOMENT = "even-arg-moment"
    SHIFTED = "shifted"
    SHIFTED_ALT = "shifted-alt"
    GENERAL_AB = "general-ab"
    GENERAL_AB_ALT = "general-ab-alt"
    EXP_WEIGHTED = "exp-weighted"


class Sign(Enum):
    PLUS = "plus"
    MINUS = "minus"


class Method(Enum):
    DIRECT = "DIRECT"
    CLOSED_FORM = "CLOSED_FORM"
    TRANSFORMED = "TRANSFORMED"


class StopRule(Enum):
    EARLIEST = "earliest"
    TERM_FLOOR = "term-floor"


def _affine(sign):
    """The unweighted affine family of a sign: plain for PLUS, else alternating."""
    return Family.GENERAL_AB if sign is Sign.PLUS else Family.GENERAL_AB_ALT


def _unweighted(family, c, sign):
    """The family itself, or for exp-weighted at c = 0 the plain affine family
    it equals exactly: the weight collapses to (+-1)^k."""
    if family is Family.EXP_WEIGHTED and c == 0.0:
        return _affine(sign)
    return family


def convergence_threshold(family, m=0, c=0.0, sign=Sign.PLUS):
    """Exponent below which (or at which) the family diverges: need s > this."""
    if not isinstance(family, Family):
        raise DomainError(f"unknown family {family!r}")
    rule = _RULES[_unweighted(family, c, sign)]
    return rule.s_min + m if "m" in rule.params else rule.s_min


class SumSpec(namedtuple("SumSpec", "family s m a b c sign tol")):
    __slots__ = ()

    def __new__(cls, family, s, m=0, a=1.0, b=1.0, c=0.0, sign=Sign.PLUS, tol=Tolerance(1e-10)):
        if not isinstance(family, Family):
            raise DomainError("family must be a Family")
        if not isinstance(sign, Sign):
            raise DomainError("sign must be a Sign")
        _require_tol(tol)
        if not isinstance(m, int) or not 0 <= m <= _M_MAX:
            _require_m(m, f"family {family.value}")  # raises, with its message
        for name, value in (("s", s), ("a", a), ("b", b), ("c", c)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
        for name, value in (("a", a), ("b", b)):
            if value <= BOUNDARY_MARGIN:
                raise DomainError(f"{name} must be > 0 (and not within 1e-12 of 0)")
        if c < 0.0:
            raise DomainError("c must be >= 0")
        if 0.0 < c <= BOUNDARY_MARGIN:
            raise DomainError("c is within 1e-12 of 0; use c = 0 exactly")
        params = _RULES[family].params
        for name, value in (("m", m), ("a", a), ("b", b), ("c", c), ("sign", sign)):
            if name not in params and value != _SPEC_DEFAULTS[name]:
                users = [f.value for f, rule in _RULES.items() if name in rule.params]
                raise DomainError(
                    f"family {family.value} does not take {name}, got {name} = "
                    f"{value.value if isinstance(value, Sign) else value}; families "
                    f"that take it: {', '.join(users)}"
                )
        need = convergence_threshold(family, m, c, sign)
        if s - need <= BOUNDARY_MARGIN:
            raise DomainError(f"family {family.value} requires s > {need:g}, got s = {s}")
        return tuple.__new__(cls, (family, s, m, a, b, c, sign, tol))


# the defaults of SumSpec's signature by field name, for the "does not take" check
_SPEC_DEFAULTS = dict(zip(SumSpec._fields[2:], SumSpec.__new__.__defaults__))

SumResult = namedtuple("SumResult", "value terms_used tail_bound method")


# ---------------------------------------------------------------------------
# Tail enclosures.  Each returns (midpoint, halfwidth); halfwidth already
# includes the inner zeta evaluation errors and local rounding slop.

def _exact_tail(spec, K, budget):
    """Tail of an integer-lattice family past K terms: the float rows of its
    exact builder's terms at K."""
    return _sum_terms(spec.s, _RULES[spec.family].exact(spec.m, K)[1])


def _lattice_order(s, A, h):
    """(order, envelope, weights) of _lattice_tail's enclosure: the order j
    minimizing the bound |w_{j+1}| hurwitz_tail_bound(s + 2j + 1, A) on the
    first omitted correction, that bound, and the weights w_1 .. w_j of the
    corrections kept, w_r = C_r h^(2r-1) (s)_(2r-1).

    One pass: the Pochhammer symbol is a running product, multiplied in
    _poch_raw's order, and the tail bound skips its input checks (s > 2 and
    A > 0 hold here), so every figure has the bits of the separate calls."""
    best_j, best_env = 0, None
    weights = []
    poch = s  # (s)_1
    for j in range(_EM_MAX_ORDER + 1):
        if j:
            poch *= s + (2 * j - 1)
            poch *= s + 2 * j
        try:
            w = _EM_C[j + 1] * h ** (2 * j + 1) * poch
        except OverflowError:
            break  # h > 1: every later order overflows too
        weights.append(w)
        env = abs(w) * _tail_bound(s + 2 * j + 1, A)
        if best_env is None or env < best_env:
            best_j, best_env = j, env
    return best_j, best_env, weights[:best_j]


def _lattice_tail(s, A, h, cap=math.inf):
    """Enclosure of sum(zeta(s, A + j*h), j >= 0); needs s > 2.

    At unit spacing it is exactly zeta(s - 1, A) + (1 - A) zeta(s, A), the
    shifted sum's identity from A: no envelope, and never capped.  Elsewhere
    it is Euler-Maclaurin over the lattice.  The integrand is completely
    monotone in the lattice coordinate, so the remainder after any correction
    order is enveloped by the first omitted correction.  A caller that can use
    no half-width above cap gets (0.0, inf) without the zeta evaluations when
    the envelope alone exceeds it.
    """
    if h == 1.0:
        terms = [(1.0, 1, A, False)]
        if A != 1.0:
            terms.append((1.0 - A, 0, A, False))
        return _sum_terms(s, terms)
    _, env, weights = _lattice_order(s, A, h)
    if env > cap:
        return 0.0, math.inf
    terms = [(1.0 / (h * (s - 1.0)), 1, A, False), (0.5, 0, A, False)]
    # zeta(s + 2r - 1, A) for r = 1, 2, ...
    terms += [(w, 1 - 2 * r, A, False) for r, w in enumerate(weights, 1)]
    return _sum_terms(s, terms, env)


def _affine_tail(spec, K, budget):
    """Tail of the unit or affine lattice sum past K terms: exact at unit
    spacing; elsewhere (0.0, inf), with no zeta evaluated, where the
    envelope alone exceeds tol."""
    h, x0 = _RULES[spec.family].lattice(spec)
    return _lattice_tail(spec.s, h * K + x0, h, spec.tol.abs_tol)


def _alt_affine_tail(spec, K, budget):
    """Tail of the alternating unit or affine lattice sum past K terms,
    (-1)^K sum(j >= 0) of (-1)^j zeta(s, h(K + j) + x0): at unit spacing
    exactly 2^-s zeta(s, (K + x0)/2), consecutive values collapsing onto the
    half lattice; otherwise the c = 0 exp-weighted tail, Boole undamped."""
    h, x0 = _RULES[spec.family].lattice(spec)
    sign = 1.0 if K % 2 == 0 else -1.0
    if h == 1.0:
        return _sum_terms(spec.s, [(sign, 0, (K + x0) / 2.0, True)])
    value, bound = _damped_zeta(spec.s, -1.0, 0.0, h * K + x0, h, budget)
    return sign * value, bound


def _damped_tail(spec, K, budget):
    """The exp-weighted tail past K terms: (+-1)^K e^(-cK) times the damped
    zeta lattice sum from K a + b."""
    pre = math.exp(-spec.c * K)
    if pre == 0.0:
        return 0.0, 0.0  # e^(-cK) underflows, and the tail with it
    sign = 1.0 if spec.sign is Sign.PLUS else -1.0
    value, bound = _damped_zeta(spec.s, sign, spec.c, K * spec.a + spec.b, spec.a, budget / pre)
    if sign < 0.0 and K % 2:
        value = -value
    return pre * value, pre * bound + (spec.c * K + 1.0) * EPS * pre * abs(value)


# --- strip integrals D(s, A, h) = integral of zeta(s, x) over [A, A+h], for
# the pole-free pair gaps of the alternating reciprocal-lattice route ------

def _int_power(K, A, h, p):
    """integral of (K + x)^p over x in [A, A+h]: (y^q - x^q)/q with q = p + 1,
    x = K + A and y = x + h.  log(y/x) is taken as log1p(h/x): from a rounded
    y / x its relative error would be eps/log(y/x), hundreds of ulps on
    thin strips.  expm1 keeps small q accurate; q = 0 gives the log itself."""
    x = K + A
    q = p + 1.0
    lg = math.log1p(h / x)
    if q == 0.0:
        return lg
    return x ** q * math.expm1(q * lg) / q


_STRIP_SPLIT = 24
_STRIP_ORDER = 6


def _strip_integral(s, A, h):
    """(value, halfwidth) for D(s, A, h); valid for any s > 1 — the only
    s-dependence sits in stable power differences, so s = 2 is not special.
    The rounding of k + A, k > 0, moves a piece, the integral of t^p, by at
    most |p| times that rounding (x |dI/dx| <= |p| I): |p| EPS of it is
    charged."""
    pieces = [(_int_power(k, A, h, -s), s if k else 0.0) for k in range(_STRIP_SPLIT)]
    pieces.append((_int_power(_STRIP_SPLIT, A, h, 1.0 - s) / (s - 1.0), s - 1.0))
    pieces.append((0.5 * _int_power(_STRIP_SPLIT, A, h, -s), s))
    for r in range(1, _STRIP_ORDER + 1):
        p = -s - (2 * r - 1)
        pieces.append((_EM_C[r] * _poch_raw(s, 2 * r - 1) * _int_power(_STRIP_SPLIT, A, h, p), -p))
    gross = charged = 0.0
    for v, c in pieces:
        gross += abs(v)
        charged += c * abs(v)
    width = abs(_EM_C[_STRIP_ORDER + 1]) * _poch_raw(s, 2 * _STRIP_ORDER + 1) * abs(
        _int_power(_STRIP_SPLIT, A, h, -s - (2 * _STRIP_ORDER + 1))
    )
    value, half = math.fsum(v for v, _ in pieces), width + fp_slop(gross) + EPS * charged
    # an overflowed (s)_k times an underflowed power is inf * 0: no bound
    return (0.0, math.inf) if math.isnan(half) else (value, half)


def _pair_gap(s, x, gap):
    """(value, halfwidth) for zeta(s, x) - zeta(s, x + gap) = s D(s + 1, x, gap),
    pole-free.  s + 1 rounds to s + 1 + d (d exact), which moves the value by
    at most |d| L of itself: L = max(|log x|, |log(x + gap)|) + 2/s bounds
    the mean |log| of the lattice under D's weights, as the mean of
    log(1 + m/t) under the weights (m + t)^-(s+1) stays below 1/s (at most
    0.998/s with mpmath for t from 1e-3 to 1e5, s + 1 from 2.0001 to 50)."""
    v, w = _strip_integral(s + 1.0, x, gap)
    d = ((s + 1.0) - 1.0) - s
    d *= max(abs(math.log(x)), abs(math.log(x + gap))) + 2.0 / s
    return s * v, s * w + (EPS + abs(d)) * abs(s * v)


# ---------------------------------------------------------------------------
# One rule row per family.

def _plain(spec, n):
    """k^m for k = n + 1 (1 for the families without a moment)."""
    return float(n + 1) ** spec.m if spec.m else 1.0


def _alternating(spec, n):
    return (1.0 if n % 2 == 0 else -1.0) * _plain(spec, n)


def _damped(spec, n):
    return (1.0 if spec.sign is Sign.PLUS else -1.0) ** n * math.exp(-spec.c * n)


# One family.  Term n >= 0 is weight(spec, n) * zeta(s, h*n + x0), with
# (h, x0) = lattice(spec); tail(spec, n, budget) encloses what follows the
# first n terms; closed(spec) is the exact ZetaCombination or None.  The sum
# needs s > s_min, plus m where it takes m.  params names the SumSpec fields
# among m, a, b, c and sign that the family reads; the others must keep their
# defaults.  exact(m, K) is an integer-lattice family's exact tail past K and
# its float rows: _exact_tail sums the rows, and its K = 0 terms are closed.
_Rule = namedtuple("_Rule", "s_min params weight lattice tail closed exact", defaults=(None, None))


_RULES = {
    Family.MOMENT: _Rule(
        2.0, frozenset({"m"}), _plain, lambda spec: (1.0, 1.0), _exact_tail,
        lambda spec: moment_combination(spec.m), _moment_terms,
    ),
    Family.MOMENT_ALT: _Rule(
        1.0, frozenset({"m"}), _alternating, lambda spec: (1.0, 1.0), _exact_tail,
        lambda spec: moment_alt_combination(spec.m), _moment_alt_terms,
    ),
    Family.EVEN_ARG_MOMENT: _Rule(
        2.0, frozenset({"m"}), _plain, lambda spec: (2.0, 2.0), _exact_tail,
        lambda spec: even_arg_moment_combination(spec.m), _even_arg_terms,
    ),
    Family.SHIFTED: _Rule(
        2.0, frozenset({"a"}), _plain, lambda spec: (1.0, spec.a), _affine_tail,
        lambda spec: shifted_combination(spec.a),
    ),
    Family.SHIFTED_ALT: _Rule(
        1.0, frozenset({"a"}), _alternating, lambda spec: (1.0, spec.a), _alt_affine_tail,
        lambda spec: shifted_alt_combination(spec.a),
    ),
    Family.GENERAL_AB: _Rule(
        2.0, frozenset({"a", "b"}), _plain, lambda spec: (spec.a, spec.b), _affine_tail
    ),
    Family.GENERAL_AB_ALT: _Rule(
        1.0, frozenset({"a", "b"}), _alternating, lambda spec: (spec.a, spec.b), _alt_affine_tail
    ),
    Family.EXP_WEIGHTED: _Rule(
        1.0, frozenset({"a", "b", "c", "sign"}), _damped,
        lambda spec: (spec.a, spec.b), _damped_tail,
    ),
}
# kappa and kappa-alt are the moment sums at m = 0, the only m they take
_RULES[Family.KAPPA] = _RULES[Family.MOMENT]._replace(params=frozenset())
_RULES[Family.KAPPA_ALT] = _RULES[Family.MOMENT_ALT]._replace(params=frozenset())


def _tail_for(spec, n_taken, budget):
    """Certified enclosure of everything past the first n_taken terms."""
    return _RULES[spec.family].tail(spec, n_taken, budget)


def _closed_route(spec):
    """The family's closed form at spec.s as a SumResult; NoClosedFormError
    where there is none."""
    build = _RULES[spec.family].closed
    if build is None:
        raise NoClosedFormError(
            f"no closed form is available for family {spec.family.value}"
        )
    combo = build(spec)
    value, bound = combo.evaluate_with_bound(spec.s, spec.tol)
    return SumResult(value, len(combo.terms), bound, Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# The summation loop shared by every series route.

def floor_crossing_arg(s, abs_tol):
    """Argument at which a bare zeta value crosses the 10*abs_tol floor;
    math.inf where that lies beyond double range (s close to 1)."""
    try:
        return ((s - 1.0) * 10.0 * abs_tol) ** (1.0 / (1.0 - s))
    except OverflowError:
        return math.inf


def _count_to(x, x0, h=1.0):
    """Number of lattice points h*n + x0, n >= 0, up to the first one >= x;
    math.inf for x = math.inf."""
    steps = max(0.0, (x - x0) / h)
    return 1 + int(math.ceil(steps)) if math.isfinite(steps) else math.inf


def _floor_count(spec, spacing=None):
    """TERM_FLOOR count of the spec's sum: the terms up to the one whose bare
    zeta value crosses 10 * abs_tol, a lower bound on the crossing since
    zeta(s, x) >= x^(1-s)/(s-1).  Without spacing it counts the family's own
    lattice; with one, the reciprocal lattice (n + b)/(spacing * a)."""
    x_star = floor_crossing_arg(spec.s, spec.tol.abs_tol)
    if spacing is None:
        h, x0 = _RULES[spec.family].lattice(spec)
        return _count_to(x_star, x0, h)
    return _count_to(spacing * spec.a * x_star, spec.b)


def _run_series(term, tail, tol, stop, method, count, over_budget, falling=True, lattice=None):
    """Sum a series to the certified absolute tolerance tol.

    term(n) -> (contribution, error, probe) for term n >= 0; the probe is the
    bare zeta value TERM_FLOOR compares with 10 * tol.  tail(n) ->
    (midpoint, halfwidth) of all past the first n terms.  DIRECT checks the
    tail once at n = 1 under EARLIEST, then every _CHUNK terms from
    MIN_EXPLICIT on, where TERM_FLOOR starts once the probe has crossed;
    transformations check after every term.  The gaps grow to n/8 once that
    is larger, so a tail slow to fit costs O(log n) checks.  count, the
    predicted floor crossing, fails a TERM_FLOOR request that cannot cross
    within the budget up front: a count past budget + 1, or one of budget
    or budget + 1 whose term budget - 1 still probes above the floor, as a
    bare zeta value falls along the lattice by far more than its rounding
    (s_pm_transformed's probe, a computed |Phi|, need not: it passes
    falling=False).  over_budget(budget=budget) gives the TermBudgetError
    message, built only when one is raised.  lattice = (s, h, x0, held)
    serves a unit-weight sum: the loop then calls the kernel on
    zeta(s, h*n + x0) itself, in place of term(n), which the up-front
    probe still calls.

    A request no run within the budget can certify fails with
    UnattainableError at a failed check: once the terms' own
    charges, their errors plus slop on their gross, exceed tol (such a check
    evaluates neither the tail nor the probe); once they exceed half of tol
    (for DIRECT from MIN_EXPLICIT on, as the first term alone may charge more
    and a later check still fit); or once they and far, the tail's own part
    (halfwidth plus slop on its midpoint) probed at n = budget, add up to
    more than tol.  The charges only grow and the tail's part only falls, so
    no check up to the budget can pass.  The probe runs once, at the first
    failed check whose halfwidth is not infinite (a skipped truncation, not
    a floor).  A NaN charge refuses as one above tol.  An OverflowError in a
    term or tail ends typed as beyond double range, naming the route only.
    """
    if not isinstance(stop, StopRule):
        raise DomainError("stop must be a StopRule")
    budget = term_budget()
    if method is Method.DIRECT:
        first, cadence, what = MIN_EXPLICIT, _CHUNK, "this sum"
    else:
        first, cadence, what = 1, 1, "this transformation"
    floor = 10.0 * tol
    # the terms' Neumaier sum hi + lo and their summed magnitude gross, taken
    # by += in order: a builtin sum() is compensated from Python 3.12 on
    hi = lo = gross = term_err = 0.0
    n = 0
    next_check = 1 if stop is StopRule.EARLIEST else None
    far = None
    if lattice is not None:
        s, h, x0, held = lattice
    try:
        if stop is StopRule.TERM_FLOOR and count is not None and count >= budget:
            # one term of margin for the rounding in floor_crossing_arg
            if count > budget + 1 or falling and term(budget - 1)[2] > floor:
                raise TermBudgetError(over_budget(budget=budget))
        while True:
            if n >= budget:
                raise TermBudgetError(over_budget(budget=budget))
            if lattice is None:
                value, err, probe = term(n)
            else:
                value, err = _hurwitz_core(s, h * n + x0, held)
                probe = value
            gross += abs(value)
            t = hi + value
            lo += (hi - t) + value if abs(hi) >= abs(value) else (value - t) + hi
            hi = t
            term_err += err
            n += 1
            if next_check is None and n >= first and probe <= floor:
                next_check = n
            if next_check is not None and n >= next_check:
                own = term_err + fp_slop(gross)
                if not own <= tol:  # the check fails whatever the tail or the probe gives
                    raise UnattainableError(_UNATTAINABLE.format(what))
                mid, wid = tail(n)
                total = term_err + wid + fp_slop(gross + 2.0 * abs(mid))
                if total <= tol:
                    t = hi + mid
                    lo += (hi - t) + mid if abs(hi) >= abs(mid) else (mid - t) + hi
                    return SumResult(value=t + lo, terms_used=n, tail_bound=total, method=method)
                hopeless = n >= first and own > 0.5 * tol
                if not hopeless and far is None and wid != math.inf:
                    mid, wid = tail(budget)
                    far = wid + fp_slop(2.0 * abs(mid))
                if hopeless or far is not None and not own + far <= tol:
                    raise UnattainableError(_UNATTAINABLE.format(what))
                next_check = max(first, n + max(cadence, n // 8))
    except OverflowError:
        raise DomainError(f"a term or tail of {what} exceeds double range") from None


def lerch_phi(z, s, alpha, tol):
    """Lerch transcendent for real z in [-1, 1], alpha > 0 (s > 1 when |z| = 1).

    s <= 0 with 0 < |z| < 1 runs through _run_series: term n is
    z^n (n + alpha)^-s, charged (n + 3 - s/2) EPS of itself, where -s/2 is
    the rounding of n + alpha, which the power amplifies -s times.  Past k
    terms every term is at most rho = q (1 + 1/(k + alpha))^-s times the one
    before, so the rest lies within |t_k| / (1 - rho) of 0 once rho < 1.
    """
    _require_tol(tol)
    if not (math.isfinite(z) and math.isfinite(s) and math.isfinite(alpha)):
        raise DomainError("lerch_phi requires finite arguments")
    _require_positive(alpha, "lerch_phi")
    if abs(z) > 1.0:
        raise DomainError("lerch_phi requires |z| <= 1")
    if abs(z) == 1.0:
        _require_s(s, 1.0, f"lerch_phi at z = {z:g}")
    if z == 1.0:
        return hurwitz_zeta(s, alpha, tol)
    if z != -1.0 and 1.0 - abs(z) <= BOUNDARY_MARGIN:
        raise DomainError("lerch_phi rejects |z| within 1e-12 of 1 (degenerate input)")
    if s > 0.0 or z == 0.0:
        return _certified(*_lerch_core(z, s, alpha, 0.9 * tol.abs_tol), tol)
    q = abs(z)

    def term(n):
        t = z ** n * (n + alpha) ** -s
        return t, (n + 3.0 - 0.5 * s) * EPS * abs(t), abs(t)

    def tail(k):
        rho = q * (1.0 + 1.0 / (k + alpha)) ** -s
        if rho >= 1.0:
            return 0.0, math.inf
        try:
            t = q ** k * (k + alpha) ** -s
        except OverflowError:
            # at the far probe, k = budget, (k + alpha)^-s alone can leave
            # double range while q^k brings t back inside
            t = math.exp(k * math.log(q) - s * math.log(k + alpha))
        return 0.0, t / (1.0 - rho)

    return _run_series(
        term, tail, tol.abs_tol, StopRule.EARLIEST, Method.DIRECT, None,
        "lerch series exceeded the term budget ({budget})".format,
    ).value


def eval_direct(spec, *, stop=StopRule.EARLIEST):
    """Evaluate the family sum by explicit terms plus a certified tail.

    EARLIEST stops as soon as the certified enclosure fits the tolerance,
    checked at the first term and then every _CHUNK terms from MIN_EXPLICIT
    on; every result keeps at least one explicit term.  TERM_FLOOR keeps
    adding terms until the bare zeta value of the last term falls to
    10 * abs_tol, which reproduces conventional "count the terms that matter"
    accounting, then continues past the floor if the enclosure does not yet
    fit.
    """
    if not isinstance(spec, SumSpec):
        raise DomainError("spec must be a SumSpec")
    family = _unweighted(spec.family, spec.c, spec.sign)
    if family is not spec.family:
        inner = SumSpec(family=family, s=spec.s, a=spec.a, b=spec.b, tol=spec.tol)
        return eval_direct(inner, stop=stop)

    tol = spec.tol.abs_tol
    rule = _RULES[family]
    h, x0 = rule.lattice(spec)
    count = max(_floor_count(spec), MIN_EXPLICIT) if stop is StopRule.TERM_FLOOR else None
    s, weight = spec.s, rule.weight
    # only a loop predicted past MIN_EXPLICIT terms amortizes the record
    held = _held(s) if count is not None and count > MIN_EXPLICIT else None

    def term(n):
        w = weight(spec, n)
        v, b = _hurwitz_core(s, h * n + x0, held)
        return w * v, abs(w) * b, v

    return _run_series(
        term, lambda n: _tail_for(spec, n, _TAIL_FRACTION * tol), tol, stop,
        Method.DIRECT, count,
        lambda budget: f"direct evaluation of {family.value} exceeded the term budget "
        f"({budget}); a transformed or closed route may be cheaper",
        lattice=(s, h, x0, held) if weight is _plain and not spec.m else None,
    )
