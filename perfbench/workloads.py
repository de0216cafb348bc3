"""Seeded workloads of the zetasums benchmark.

Each workload turns a seed into a list of requests, runs one request against
the public library API (`call`, the timed part) and checks its output
(`check`, outside the timed part).  Parameters are drawn uniformly (U) or
log-uniformly (logU) from a stratified design (`design`): the same seed
gives the same requests, every parameter takes one value in each of n equal
strata of its range, and the identity workload gives every key the same
number of requests, each key with its own strata.  A run of a few hundred
requests thus holds much the same mix of cheap and costly requests for
every seed, which keeps its medians and failure shares close from one seed
to the next.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _radical_inverse(i, base):
    inv, f = 0.0, 1.0 / base
    while i:
        i, d = divmod(i, base)
        inv += d * f
        f /= base
    return inv


def _latin_hypercube(rng, dims, n):
    """n points in [0, 1)^dims with one point in each interval [k/n, (k+1)/n)
    of every coordinate, at a random place inside it.  The points take their
    intervals in the order of their ranks in a Halton sequence shifted at
    random modulo 1, so that pairs of coordinates cover the square evenly
    as well."""
    coords = []
    for base in _PRIMES[:dims]:
        shift = rng.random()
        halton = [(_radical_inverse(i + 1, base) + shift) % 1.0 for i in range(n)]
        col = [0.0] * n
        for k, i in enumerate(sorted(range(n), key=halton.__getitem__)):
            col[i] = (k + rng.random()) / n
        coords.append(col)
    return [list(p) for p in zip(*coords)]


def design(seed, dims, n, groups=1):
    """n points in [0, 1)^dims, all drawn from the seed, in random order.

    With groups > 1 the first coordinate is cut into `groups` equal
    intervals, each of which gets n / groups points (give or take one) at
    random places inside it, and the other coordinates of each group form a
    Latin hypercube of their own; otherwise all coordinates form one.
    """
    rng = random.Random(seed)
    if groups == 1:
        points = _latin_hypercube(rng, dims, n)
    else:
        points = []
        for g in range(groups):
            block = _latin_hypercube(rng, dims - 1, n // groups + (g < n % groups))
            points += [[(g + rng.random()) / groups] + u for u in block]
    rng.shuffle(points)
    return points


def _uni(lo, hi, u):
    return lo + (hi - lo) * u


def _log_uni(lo, hi, u):
    return lo * (hi / lo) ** u


# identity key -> (family name, m, parameters beyond s).  The corollary's
# family follows its sign.  Written out here so the benchmark uses only the
# public API; `_check_catalog` fails the run if the catalog's keys change.
_IDENTITY_SHAPES = {
    "2.1": ("KAPPA", 0, ()),
    "2.2": ("KAPPA_ALT", 0, ()),
    "2.3": ("SHIFTED", 0, ("a",)),
    "2.4": ("SHIFTED_ALT", 0, ("a",)),
    "3.1": ("MOMENT", 1, ()),
    "3.2": ("MOMENT", 2, ()),
    "3.3": ("MOMENT", 3, ()),
    "3.7": ("MOMENT_ALT", 1, ()),
    "3.8": ("MOMENT_ALT", 2, ()),
    "even-m1": ("EVEN_ARG_MOMENT", 1, ()),
    "even-m2": ("EVEN_ARG_MOMENT", 2, ()),
    "4.2": ("GENERAL_AB", 0, ("a", "b")),
    "4.3": ("GENERAL_AB_ALT", 0, ("a", "b")),
    "4.4": ("EXP_WEIGHTED", 0, ("a", "b", "c", "sign")),
    "corollary": (None, 0, ("a", "sign")),
}


def _check_catalog(zs):
    if tuple(sorted(zs.IDENTITY_KEYS)) != tuple(sorted(_IDENTITY_SHAPES)):
        raise SystemExit("the identity catalog changed; update _IDENTITY_SHAPES")


def _identity_params(zs, u):
    keys = zs.IDENTITY_KEYS
    key = keys[min(int(u[0] * len(keys)), len(keys) - 1)]
    fam_name, m, extra = _IDENTITY_SHAPES[key]
    p = {"key": key, "tol": _log_uni(1e-12, 1e-8, u[2])}
    if "a" in extra:
        lo = 0.1 if key in ("2.3", "2.4") else 0.02
        p["a"] = _log_uni(lo, 10.0, u[5])
    if "b" in extra:
        p["b"] = _uni(0.3, 3.0, u[4])
    if "c" in extra:
        p["c"] = _log_uni(0.05, 2.0, u[3])
    sign = zs.Sign.PLUS if u[6] < 0.5 else zs.Sign.MINUS
    if "sign" in extra:
        p["sign"] = sign
    if fam_name is None:
        family = zs.Family.GENERAL_AB if sign is zs.Sign.PLUS else zs.Family.GENERAL_AB_ALT
    else:
        family = zs.Family[fam_name]
    need = zs.convergence_threshold(family, m, p.get("c", 0.0), sign)
    p["s"] = need + _log_uni(0.02, 8.0, u[1])
    return p


def _call_identity(zs, p):
    kwargs = {k: p[k] for k in ("a", "b", "c", "sign") if k in p}
    return zs.check_identity(p["key"], s=p["s"], tol=zs.Tolerance(p["tol"]), **kwargs)


def _check_identity(zs, p, rep):
    """(well_formed, agrees, bound / tol) for one IdentityReport."""
    fields = (rep.lhs_value, rep.rhs_value, rep.budget)
    well_formed = (
        isinstance(rep, zs.IdentityReport)
        and all(map(math.isfinite, fields))
        and rep.budget > 0.0
    )
    agrees = rep.passed and abs(rep.lhs_value - rep.rhs_value) <= rep.budget
    return well_formed, agrees, rep.budget / p["tol"]


def _check_two_routes(zs, p, out):
    """Two routes agree when they differ by no more than the sum of their
    certified tail bounds; the reported bound is the larger of the two."""
    direct, trans = out
    well_formed = all(
        isinstance(r, zs.SumResult)
        and math.isfinite(r.value)
        and math.isfinite(r.tail_bound)
        and r.tail_bound > 0.0
        for r in out
    )
    agrees = abs(direct.value - trans.value) <= direct.tail_bound + trans.tail_bound
    return well_formed, agrees, max(direct.tail_bound, trans.tail_bound) / p["tol"]


def _route_compare_params(zs, u):
    return {
        "s": _uni(3.5, 6.0, u[0]),
        "a": _log_uni(0.01, 0.2, u[1]),
        "b": _uni(0.5, 2.0, u[2]),
        "tol": 1e-8,
    }


def _call_route_compare(zs, p):
    tol = zs.Tolerance(p["tol"])
    spec = zs.SumSpec(family=zs.Family.GENERAL_AB, s=p["s"], a=p["a"], b=p["b"], tol=tol)
    direct = zs.eval_direct(spec, stop=zs.StopRule.TERM_FLOOR)
    trans = zs.kappa_ab_transformed(p["s"], p["a"], p["b"], tol, stop=zs.StopRule.TERM_FLOOR)
    return direct, trans


def _damped_params(zs, u):
    return {
        "c": _log_uni(1e-3, 1.0, u[0]),
        "s": _uni(1.5, 4.0, u[1]),
        "a": _log_uni(0.1, 2.0, u[2]),
        "tol": _log_uni(1e-12, 1e-8, u[3]),
        "sign": zs.Sign.PLUS if u[4] < 0.5 else zs.Sign.MINUS,
        "b": _uni(0.5, 2.0, u[5]),
    }


def _call_damped(zs, p):
    tol = zs.Tolerance(p["tol"])
    spec = zs.SumSpec(
        family=zs.Family.EXP_WEIGHTED,
        s=p["s"], a=p["a"], b=p["b"], c=p["c"], sign=p["sign"], tol=tol,
    )
    direct = zs.eval_direct(spec, stop=zs.StopRule.EARLIEST)
    trans = zs.s_pm_transformed(
        p["s"], p["a"], p["b"], p["c"], p["sign"], tol, stop=zs.StopRule.EARLIEST
    )
    return direct, trans


@dataclass(frozen=True)
class Workload:
    """One workload: parameter generator, timed call, untimed check.

    A run sends per_run requests and a traced run traced_per_run, so that
    the attempted and failed requests and the per-layer counts repeat
    exactly for a seed.  deadline_s is the per-request deadline.  groups is
    the number of equal strata of the first parameter coordinate (see
    `design`).
    """

    dims: int
    params: Callable
    call: Callable
    check: Callable
    deadline_s: float
    per_run: int
    traced_per_run: int
    groups: int = 1

    def requests(self, zs, seed, n):
        """The seed's n requests."""
        _check_catalog(zs)
        return [self.params(zs, u) for u in design(seed, self.dims, n, self.groups)]


WORKLOADS = {
    # The paper's headline comparison, as compare_methods and the CLI
    # `benchmark` subcommand run it: general-ab by both routes under the
    # TERM_FLOOR rule.  About 92 % of the time is under the Hurwitz kernel
    # (~5.7k calls a request, half of it in NSum.add), while catalog, closed
    # and the Lerch kernel stay idle, so a kernel speed-up shows here.
    "route-compare": Workload(
        3, _route_compare_params, _call_route_compare,
        _check_two_routes, deadline_s=10.0, per_run=500, traced_per_run=100,
    ),
    # Thousands of sub-millisecond identity checks over all 15 catalog keys.
    # 20-35 % of the time is in the tail enclosures (lattice, paired strip,
    # moment, geometric), closed combinations and the catalog do work, and
    # the kernel runs at small alpha and at exponents near 1: a kernel tuned
    # for large alpha, or a route refactor, must not slow this workload.
    # The 1 s deadline is 45 times the slowest request seen to finish (22 ms
    # in 5000), so the few requests that stall near a pole pass it on every
    # run, and no other request does.
    "identity-mixed": Workload(
        7, _identity_params,
        _call_identity, _check_identity, deadline_s=1.0, per_run=8000,
        traced_per_run=1000, groups=len(_IDENTITY_SHAPES),
    ),
    # Exponentially weighted sums, both routes with EARLIEST: both cost
    # O(1/c).  About half the time is in the geometric zeta tail of the
    # transformed route and the direct route makes ~400 tail checks a
    # request against a slack geometric majorant; route-compare never
    # enters these layers.
    "damped-lattice": Workload(
        6, _damped_params, _call_damped,
        _check_two_routes, deadline_s=10.0, per_run=240, traced_per_run=60,
    ),
}
