"""Command-line front end: single evaluations, identity sweeps, the
direct-vs-transformed benchmark, and coefficient/identity tables.

Exit codes: 0 all requested checks passed, 1 at least one identity or
benchmark comparison failed, 2 usage or domain error.
"""

import argparse
import json
import math
import sys

from .errors import DomainError, TermBudgetError, ZetaSumsError
from .special import Tolerance, bernoulli_fraction
from .closed import eulerian_polynomial, faulhaber_coeffs
from .sums import Family, Method, Sign, StopRule, SumSpec
from .transforms import _timed_compare, evaluate
from .catalog import DEFAULT_IDENTITY_TOL, IDENTITY_KEYS, check_identity, default_grid, resolve_key

# eval shares the benchmark's accuracy anchor; identity checks run tighter
_BENCH_DEFAULT_TOL = 1e-8


def _render(args, rows, csv_header=None, footer=None, payload=None):
    """Emit rows, each a (json object, csv line, text line) triple, in
    args.format: a JSON list of the objects (payload in its place when
    given), the csv header and lines, or the text lines and footer; to
    args.output when set, else to stdout."""
    if args.format == "json":
        text = json.dumps([row[0] for row in rows] if payload is None else payload, sort_keys=True)
    elif args.format == "csv":
        text = "\n".join([csv_header] + [row[1] for row in rows])
    else:
        text = "\n".join([row[2] for row in rows] + ([] if footer is None else [footer]))
    if args.output:
        with open(args.output, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


def _enum_arg(enum, message):
    """argparse type for a member of enum; message may use {value!r}."""
    def convert(value):
        try:
            return enum(value)
        except ValueError:
            raise argparse.ArgumentTypeError(message.format(value=value))

    return convert


_family = _enum_arg(
    Family, "unknown family {value!r}; choose from " + ", ".join(f.value for f in Family)
)
_sign = _enum_arg(Sign, "sign must be plus or minus")
_stop = _enum_arg(StopRule, "stop must be earliest or term-floor")
# --method -> evaluate's method: auto leaves the choice to evaluate
_METHODS = {
    "auto": None, "direct": Method.DIRECT, "closed": Method.CLOSED_FORM,
    "transformed": Method.TRANSFORMED,
}


def _positive_float(value):
    x = float(value)
    if not x > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return x


def _float_list(value):
    try:
        out = [float(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        out = []
    if not out:
        raise argparse.ArgumentTypeError("expected comma-separated floats")
    return out


_GRID_MAX_POINTS = 10_000


def _grid_range(value):
    """Parse a lo:hi:step inclusive grid argument of at most _GRID_MAX_POINTS points."""
    parts = value.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise argparse.ArgumentTypeError("grid lo, hi and step must be finite")
    if step <= 0.0 or hi < lo:
        raise argparse.ArgumentTypeError("grid needs step > 0 and hi >= lo")
    # slack for the rounding of lo + k*step, kept below a thousandth of a step
    eps = min(1e-9 * max(1.0, abs(hi)), 1e-3 * step)
    last = (hi + eps - lo) / step  # the last index k with lo + k*step <= hi + eps, to within 1
    if last >= _GRID_MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid has {last + 1:.6g} points; at most {_GRID_MAX_POINTS} are allowed"
        )
    # lo + k*step never falls as k grows, so the points kept are the first ones
    return [x for x in (lo + k * step for k in range(int(last) + 2)) if x <= hi + eps]


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args):
    spec = SumSpec(
        family=args.family,
        s=args.s,
        m=args.m,
        a=args.a,
        b=args.b,
        c=args.c,
        sign=args.sign,
        tol=Tolerance(args.tol),
    )
    r = evaluate(spec, method=_METHODS[args.method], stop=args.stop)
    record = dict(r._asdict(), method=r.method.value)
    text = (
        "value       {value:.10g}\n"
        "terms_used  {terms_used}\n"
        "tail_bound  {tail_bound:.10g}\n"
        "method      {method}".format(**record)
    )
    _render(args, [(record, None, text)], payload=record)
    return 0


# ---------------------------------------------------------------------------
# identity-check

def _identity_line(rep):
    status = "PASS" if rep.passed else "FAIL"
    pstr = " ".join(f"{k}={v}" for k, v in rep.params.items())
    return (
        f"{status} {rep.identity} {pstr} "
        f"lhs={rep.lhs_value:.10g} rhs={rep.rhs_value:.10g} "
        f"abs_diff={rep.abs_diff:.10g} budget={rep.budget:.10g}"
    )


def _point(args, **fixed):
    """check_identity parameters: the --a/--b/--c/--sign given, then fixed."""
    point = {
        name: getattr(args, name)
        for name in ("a", "b", "c", "sign")
        if getattr(args, name) is not None
    }
    point.update(fixed)
    return point


def cmd_identity_check(args):
    tol = Tolerance(args.tol)
    reports = []
    if args.identity == "all":
        if args.grid != "default":
            raise DomainError("identity-check all requires --grid default")
        keys = list(IDENTITY_KEYS)
    else:
        keys = [resolve_key(args.identity)]

    for key in keys:
        if args.grid == "default":
            points = default_grid(key)
        else:
            if args.s is None:
                raise DomainError(
                    "identity-check needs --s (or --grid default for the stock sweep)"
                )
            points = [_point(args, s=args.s)]
        for point in points:
            reports.append(check_identity(key, tol=tol, **point))

    n_fail = sum(1 for r in reports if not r.passed)
    _render(
        args, [(r.to_json_dict(), None, _identity_line(r)) for r in reports],
        footer=f"{len(reports) - n_fail}/{len(reports)} identities passed",
    )
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# benchmark

def cmd_benchmark(args):
    tol = Tolerance(args.tol)
    rows = []
    for a in args.a_list:
        try:
            rep, direct_ms, trans_ms = _timed_compare(
                args.s, a, args.b, tol, StopRule.TERM_FLOOR
            )
        except TermBudgetError as exc:
            status = "term-budget-exceeded"
            rows.append((
                {"a": a, "status": status, "detail": str(exc)},
                f"{a!r},,,,,,,{status}",
                f"a={a:g}: {status} ({exc})",
            ))
            continue
        status = "ok" if rep.agreement <= tol.abs_tol else "disagree"
        rows.append((
            {"a": a, "status": status, "report": rep.to_json_dict()},
            f"{a!r},{rep.lhs_terms},{rep.rhs_terms},{rep.agreement!r},"
            f"{rep.speedup_estimate!r},{direct_ms:.3f},{trans_ms:.3f},{status}",
            f"a={a:g}: direct {rep.lhs_terms} terms ({direct_ms:.2f} ms), transformed "
            f"{rep.rhs_terms} terms ({trans_ms:.2f} ms), agreement {rep.agreement:.10g}, "
            f"speedup {rep.speedup_estimate:.1f}x [{status}]",
        ))
    _render(
        args, rows,
        csv_header="a,direct_terms,transformed_terms,agreement,speedup_estimate,"
        "direct_ms,transformed_ms,status",
    )
    return 1 if any(row[0]["status"] == "disagree" for row in rows) else 0


# ---------------------------------------------------------------------------
# table

def _coeff_rows(family, m_max):
    """(csv header, rows) of a coefficient table, rows as _render triples."""
    if family == "bernoulli":
        values = [(n, str(bernoulli_fraction(n))) for n in range(0, m_max + 1)]
        return "n,value", [
            ({"n": n, "value": v}, f"{n},{v}", f"B_{n} = {v}") for n, v in values
        ]
    if family == "eulerian":
        tables = [(m, 0, eulerian_polynomial(m)) for m in range(1, m_max + 1)]
    else:
        tables = [(m, *faulhaber_coeffs(m)) for m in range(m_max + 1)]
    rows = []
    for m, offset, coeffs in tables:
        cs = [str(f) for f in coeffs]
        rows.append((
            {"m": m, "offset": offset, "coefficients": cs},
            f"{m},{offset},{' '.join(cs)}",
            f"m={m} offset={offset}: {', '.join(cs)}",
        ))
    return "m,offset,coefficients", rows


def cmd_table(args):
    if (args.family_table is None) == (args.identity is None):
        raise DomainError("table needs exactly one of --identity or --family")

    if args.family_table is not None:
        header, rows = _coeff_rows(args.family_table, args.m_max)
        payload = {"family": args.family_table, "rows": [row[0] for row in rows]}
        _render(args, rows, csv_header=header, payload=payload)
        return 0

    key = resolve_key(args.identity)
    if (args.s_grid is None) == (args.c_grid is None):
        raise DomainError("table --identity needs exactly one of --s-grid or --c-grid")
    tol = Tolerance(args.tol)
    if args.s_grid is not None:
        sweep_name, grid = "s", args.s_grid
    else:
        if args.s is None:
            raise DomainError("table --c-grid needs a fixed --s")
        sweep_name, grid = "c", args.c_grid
    rows = []
    for x in grid:
        point = _point(args, s=args.s)
        point[sweep_name] = x
        rep = check_identity(key, tol=tol, **point)
        rows.append((
            {"identity": rep.identity, sweep_name: x, "lhs": rep.lhs_value,
             "rhs": rep.rhs_value, "abs_diff": rep.abs_diff, "pass": rep.passed},
            f"{rep.identity},{x!r},{rep.lhs_value!r},{rep.rhs_value!r},"
            f"{rep.abs_diff!r},{str(rep.passed).lower()}",
            _identity_line(rep),
        ))
    _render(args, rows, csv_header=f"identity,{sweep_name},lhs,rhs,abs_diff,pass")
    return 1 if any(not row[0]["pass"] for row in rows) else 0


# ---------------------------------------------------------------------------

def _point_options(parser, ab, c, sign, tol):
    """Add the point options --a, --b (both defaulting to ab), --c, --sign and --tol."""
    parser.add_argument("--a", type=_positive_float, default=ab)
    parser.add_argument("--b", type=_positive_float, default=ab)
    parser.add_argument("--c", type=float, default=c)
    parser.add_argument("--sign", type=_sign, default=sign)
    parser.add_argument("--tol", type=_positive_float, default=tol)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zetasums",
        description="Certified evaluation and cross-validation of zeta-family sums.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one family sum")
    p_eval.add_argument("--family", type=_family, required=True)
    p_eval.add_argument("--s", type=float, required=True)
    p_eval.add_argument("--m", type=int, default=0)
    _point_options(p_eval, 1.0, 0.0, Sign.PLUS, _BENCH_DEFAULT_TOL)
    p_eval.add_argument("--method", choices=tuple(_METHODS), default="auto")
    p_eval.add_argument("--stop", type=_stop, default=StopRule.EARLIEST)
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(run=cmd_eval)

    p_id = sub.add_parser("identity-check", help="verify a two-route identity")
    p_id.add_argument("identity", help="catalog key, alias, or 'all'")
    p_id.add_argument("--s", type=float, default=None)
    _point_options(p_id, None, None, None, DEFAULT_IDENTITY_TOL.abs_tol)
    p_id.add_argument("--grid", choices=("default",), default=None)
    p_id.add_argument("--format", choices=("text", "json"), default="text")
    p_id.add_argument("--output", default=None)
    p_id.set_defaults(run=cmd_identity_check)

    p_bench = sub.add_parser(
        "benchmark", help="direct vs transformed term counts and timings"
    )
    p_bench.add_argument("--s", type=float, default=4.0)
    p_bench.add_argument("--b", type=_positive_float, default=1.0)
    p_bench.add_argument("--tol", type=_positive_float, default=_BENCH_DEFAULT_TOL)
    p_bench.add_argument("--a-list", type=_float_list, default=[0.1, 0.01])
    p_bench.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_bench.add_argument("--output", default=None)
    p_bench.set_defaults(run=cmd_benchmark)

    p_table = sub.add_parser("table", help="identity sweeps and coefficient tables")
    p_table.add_argument("--identity", default=None)
    p_table.add_argument(
        "--family", dest="family_table",
        choices=("eulerian", "faulhaber", "bernoulli"), default=None,
    )
    p_table.add_argument("--m-max", type=int, default=6)
    p_table.add_argument("--s-grid", type=_grid_range, default=None)
    p_table.add_argument("--c-grid", type=_grid_range, default=None)
    p_table.add_argument("--s", type=float, default=None)
    _point_options(p_table, None, None, None, DEFAULT_IDENTITY_TOL.abs_tol)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(run=cmd_table)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ZetaSumsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
