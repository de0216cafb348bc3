"""Identity catalog: every entry pins a two-route equality — a family sum
evaluated by explicit terms against an independent closed-form or
reciprocal-lattice route.  check_identity runs both sides with certified
bounds and passes iff the observed gap fits inside the combined budget.
"""

from collections import namedtuple

from .errors import DomainError, UnattainableError
from .special import Tolerance, _require_tol
from .sums import _RULES, Family, Method, Sign, SumSpec, eval_direct, _affine
from .transforms import evaluate

__all__ = [
    "DEFAULT_IDENTITY_TOL", "IDENTITY_KEYS", "ALIASES", "resolve_key", "IdentityReport",
    "check_identity", "default_grid",
]

DEFAULT_IDENTITY_TOL = Tolerance(1e-10)

# key -> (family, fixed m, required parameter names)
_CATALOG = {
    "2.1": (Family.KAPPA, 0, ()),
    "2.2": (Family.KAPPA_ALT, 0, ()),
    "2.3": (Family.SHIFTED, 0, ("a",)),
    "2.4": (Family.SHIFTED_ALT, 0, ("a",)),
    "3.1": (Family.MOMENT, 1, ()),
    "3.2": (Family.MOMENT, 2, ()),
    "3.3": (Family.MOMENT, 3, ()),
    "3.7": (Family.MOMENT_ALT, 1, ()),
    "3.8": (Family.MOMENT_ALT, 2, ()),
    "even-m1": (Family.EVEN_ARG_MOMENT, 1, ()),
    "even-m2": (Family.EVEN_ARG_MOMENT, 2, ()),
    "4.2": (Family.GENERAL_AB, 0, ("a", "b")),
    "4.3": (Family.GENERAL_AB_ALT, 0, ("a", "b")),
    "4.4": (Family.EXP_WEIGHTED, 0, ("a", "b", "c", "sign")),
    "corollary": (Family.GENERAL_AB, 0, ("a", "sign")),
}

IDENTITY_KEYS = tuple(_CATALOG)

ALIASES = {
    "kappa": "2.1",
    "kappa-alt": "2.2",
    "shifted": "2.3",
    "shifted-alt": "2.4",
    "moment-m1": "3.1",
    "moment-m2": "3.2",
    "moment-m3": "3.3",
    "kappa3": "3.3",
    "alt-m1": "3.7",
    "alt-m2": "3.8",
    "ab": "4.2",
    "ab-alt": "4.3",
    "lerch": "4.4",
}


def resolve_key(name):
    """Canonical catalog key for a key or alias; DomainError if unknown."""
    if name in _CATALOG:
        return name
    if name in ALIASES:
        return ALIASES[name]
    known = ", ".join(list(IDENTITY_KEYS) + sorted(ALIASES))
    raise DomainError(f"unknown identity {name!r}; known: {known}")


class IdentityReport(namedtuple(
    "IdentityReport", "identity params lhs_value rhs_value abs_diff rel_diff budget passed"
)):
    __slots__ = ()

    def to_json_dict(self):
        """The fields as a dict, its params a copy: mutating it leaves the report as it was."""
        return dict(self._asdict(), params=dict(self.params))


_LADDER = (1.0, 4.0, 16.0, 64.0, 256.0)


def _with_ladder(run, spec):
    """run(spec), relaxing spec's tolerance geometrically when the request
    sits below the double-precision floor for these magnitudes: only an
    UnattainableError climbs the ladder, as no looser tol mends any other
    refusal.  Rung 1 runs the validated spec itself; a later rung swaps in
    its tol by _replace, which does not validate again.  The returned bound
    is always the achieved one, so the pass/fail budget stays honest
    regardless of which rung succeeded."""
    last = None
    for factor in _LADDER:
        rung = spec if factor == 1.0 else spec._replace(tol=Tolerance(spec.tol.abs_tol * factor))
        try:
            return run(rung)
        except UnattainableError as exc:
            last = exc
    raise last


def _spec(key, p, tol):
    """The SumSpec of the identity's sum at the parameters p."""
    family, m, _ = _CATALOG[key]
    kwargs = {k: v for k, v in p.items() if k != "s"}
    if key == "corollary":
        # b = a, on the plain or alternating lattice as the sign says
        family = _affine(kwargs.pop("sign"))
        kwargs["b"] = kwargs["a"]
    return SumSpec(family=family, s=p["s"], m=m, tol=tol, **kwargs)


def check_identity(name, *, s, a=None, b=None, c=None, sign=None, tol=None):
    """Evaluate both routes of the named identity and report the agreement.

    Parameters beyond s are accepted only where the identity uses them.
    sign defaults to plus for the identities that carry one.
    """
    key = resolve_key(name)
    family, m, required = _CATALOG[key]
    if tol is None:
        tol = DEFAULT_IDENTITY_TOL
    _require_tol(tol)
    supplied = {"a": a, "b": b, "c": c, "sign": sign}
    p = {"s": s}
    for pname in required:
        val = supplied.pop(pname)
        if pname == "sign":
            val = Sign.PLUS if val is None else val
            if not isinstance(val, Sign):
                raise DomainError("sign must be a Sign")
        elif val is None:
            raise DomainError(f"identity {key} requires parameter {pname}")
        p[pname] = val
    for pname, val in supplied.items():
        if val is not None:
            raise DomainError(f"identity {key} does not take parameter {pname}")

    # validated once, for both sides and every rung of their ladders
    spec = _spec(key, p, tol)
    lhs = _with_ladder(eval_direct, spec)  # under its default stop, EARLIEST
    # the right-hand side is the closed form where the family has one, else
    # the reciprocal-lattice transformation
    rhs_method = Method.CLOSED_FORM if _RULES[family].closed else Method.TRANSFORMED
    rhs = _with_ladder(lambda sp: evaluate(sp, method=rhs_method), spec)

    abs_diff = abs(lhs.value - rhs.value)
    scale = max(abs(lhs.value), abs(rhs.value))
    rel_diff = abs_diff / scale if scale > 0.0 else 0.0
    budget = lhs.tail_bound + rhs.tail_bound
    report_params = {"m": m} if m else {}
    report_params.update(
        (k, (v.value if isinstance(v, Sign) else v)) for k, v in p.items()
    )
    return IdentityReport(
        identity=key,
        params=report_params,
        lhs_value=lhs.value,
        rhs_value=rhs.value,
        abs_diff=abs_diff,
        rel_diff=rel_diff,
        budget=budget,
        passed=bool(abs_diff <= budget),
    )


def default_grid(name):
    """The stock parameter grid swept by identity-check all."""
    key = resolve_key(name)
    return [dict(p) for p in _DEFAULT_GRIDS[key]]


_S_MAIN = (2.5, 3.0, 4.0, 6.0, 10.0)
_S_ALT = (1.5, 2.0, 3.0, 7.0)
_A_GRID = (0.25, 1.0, 2.5, 9.75)

_DEFAULT_GRIDS = {
    "2.1": [{"s": s} for s in _S_MAIN],
    "2.2": [{"s": s} for s in _S_ALT],
    "2.3": [{"s": s, "a": a} for s in _S_MAIN for a in _A_GRID],
    "2.4": [{"s": s, "a": a} for s in _S_ALT for a in _A_GRID],
    "3.1": [{"s": 3.5}, {"s": 5.0}],
    "3.2": [{"s": 4.5}, {"s": 6.0}],
    "3.3": [{"s": 5.5}, {"s": 7.0}],
    "3.7": [{"s": 3.5}, {"s": 5.0}],
    "3.8": [{"s": 3.5}, {"s": 5.0}],
    "even-m1": [{"s": 4.0}, {"s": 5.0}],
    "even-m2": [{"s": 5.0}, {"s": 6.0}],
    "4.2": [
        {"s": 4.0, "a": 0.1, "b": 1.0},
        {"s": 4.0, "a": 0.01, "b": 1.0},
        {"s": 3.0, "a": 2.5, "b": 0.7},
    ],
    "4.3": [
        {"s": 4.0, "a": 0.1, "b": 1.0},
        {"s": 2.0, "a": 0.5, "b": 1.5},
        {"s": 1.5, "a": 1.0, "b": 1.0},
    ],
    "4.4": [
        {"s": 3.0, "a": 0.5, "b": 1.0, "c": 0.7, "sign": Sign.PLUS},
        {"s": 2.0, "a": 0.25, "b": 0.5, "c": 1.2, "sign": Sign.MINUS},
    ],
    "corollary": [
        {"s": 4.0, "a": 0.5, "sign": Sign.PLUS},
        {"s": 2.0, "a": 1.5, "sign": Sign.MINUS},
    ],
}
