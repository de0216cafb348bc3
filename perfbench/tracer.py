"""Layer-boundary spans for the zetasums benchmark, recorded from outside the
library.

While installed, the tracer rebinds each boundary function, in every
zetasums module namespace that holds it, to a wrapper that records a span:
name, parent span, request id, start and end.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the durations of its
child spans, which calls in one thread nest exactly.
"""

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# module, attribute (Class.method for a method), whether it returns a
# result with terms_used; the span is named module.function
BOUNDARIES = (
    ("special", "_hurwitz_core", False),
    ("special", "_lerch_core", False),
    ("sums", "eval_direct", True),
    ("sums", "_tail_for", False),
    ("sums", "_strip_integral", False),
    ("transforms", "kappa_ab_transformed", True),
    ("transforms", "kappa_ab_alt_transformed", True),
    ("transforms", "s_pm_transformed", True),
    ("transforms", "_geo_zeta_tail", False),
    ("closed", "ZetaCombination.evaluate_with_bound", False),
    ("catalog", "check_identity", False),
)
REQUEST = "request"
TRANSFORMED = (
    "transforms.kappa_ab_transformed",
    "transforms.kappa_ab_alt_transformed",
    "transforms.s_pm_transformed",
)
# routes the catalog's relaxation ladder attempts
ROUTES = ("sums.eval_direct", "closed.evaluate_with_bound") + TRANSFORMED
_FIELDS = 5  # name id, parent index, request id, start ns, end ns (-1 while open)


class Tracer:
    def __init__(self, zs):
        self._zs = zs
        self.names = [REQUEST] + [
            f"{mod}.{attr.split('.')[-1]}" for mod, attr, _ in BOUNDARIES
        ]
        self._data = array("q")
        self._terms = {}  # span index -> terms_used of the result it returned
        self._stack = [-1]
        self._roots = []  # root span index of each request, in request order
        self._request = -1

    def begin_request(self, i):
        self._request = i
        root = len(self._data) // _FIELDS
        self._roots.append(root)
        self._data.extend((0, -1, i, time.perf_counter_ns(), -1))
        # a request cut by its deadline may leave spans open; start clean
        self._stack[:] = [root]

    def end_request(self):
        self._data[_FIELDS * self._stack[0] + 4] = time.perf_counter_ns()

    def _wrap(self, nid, fn, counts_terms):
        data, terms, stack = self._data, self._terms, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(data) // _FIELDS
            data.extend((nid, stack[-1], self._request, clock(), -1))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                data[_FIELDS * idx + 4] = clock()
                stack.pop()
            if counts_terms:
                terms[idx] = out.terms_used
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every boundary to its wrapper; restore the originals on exit."""
        modules = [
            m for name, m in sys.modules.items()
            if name == self._zs.__name__ or name.startswith(self._zs.__name__ + ".")
        ]
        swaps = []
        try:
            for nid, (mod, attr, counts_terms) in enumerate(BOUNDARIES, start=1):
                home = sys.modules[f"{self._zs.__name__}.{mod}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    swaps.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(nid, original, counts_terms))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(nid, original, counts_terms)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            swaps.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(swaps):
                setattr(owner, key, original)

    def reset(self):
        """Drop every recorded span."""
        del self._data[:]
        self._terms.clear()
        self._roots.clear()

    def _spans(self, n_requests):
        """Columns of the spans of the first n_requests requests."""
        end = len(self._data)
        if n_requests < len(self._roots):
            end = _FIELDS * self._roots[n_requests]
        return [self._data[k:end:_FIELDS] for k in range(_FIELDS)]

    def layer_metrics(self, records):
        """Per-layer metrics over the requests in `records` (a prefix of the
        traced run), leaving out requests cut by the deadline, whose spans
        depend on where the deadline fell."""
        keep = {i for i, r in enumerate(records) if r[1] != "timeout"}
        names, parents, reqs, starts, ends = self._spans(len(records))
        child = Counter()
        for p, r, t0, t1 in zip(parents, reqs, starts, ends):
            if r in keep and p >= 0:
                child[p] += t1 - t0
        calls, self_ns, terms = Counter(), Counter(), Counter()
        results = Counter()  # spans that returned a result with terms_used
        attempts = 0
        check_id = self.names.index("catalog.check_identity")
        route_ids = {self.names.index(n) for n in ROUTES}
        for idx, (nid, p, r, t0, t1) in enumerate(zip(names, parents, reqs, starts, ends)):
            if r not in keep:
                continue
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += t1 - t0 - child[idx]
            if idx in self._terms:
                terms[name] += self._terms[idx]
                results[name] += 1
            if nid in route_ids and p >= 0 and names[p] == check_id:
                attempts += 1

        def secs(*ns):
            return sum(self_ns[n] for n in ns) * 1e-9

        def ratio(x, y):
            return x / y if y else 0.0

        n = len(keep)
        direct_terms = terms["sums.eval_direct"]
        trans_terms = sum(terms[t] for t in TRANSFORMED)
        checks = calls["catalog.check_identity"]
        values = {
            "special.hurwitz_calls": (calls["special._hurwitz_core"], "count"),
            "special.hurwitz_self_s": (secs("special._hurwitz_core"), "s"),
            "special.lerch_calls": (calls["special._lerch_core"], "count"),
            "special.lerch_self_s": (secs("special._lerch_core"), "s"),
            "sums.direct_calls": (calls["sums.eval_direct"], "count"),
            "sums.direct_self_s": (secs("sums.eval_direct"), "s"),
            "sums.direct_terms": (direct_terms, "count"),
            "sums.tail_calls": (calls["sums._tail_for"], "count"),
            "sums.tail_self_s": (secs("sums._tail_for"), "s"),
            "sums.tail_accept_ratio": (
                ratio(results["sums.eval_direct"], calls["sums._tail_for"]), "ratio"
            ),
            "sums.strip_calls": (calls["sums._strip_integral"], "count"),
            "sums.strip_self_s": (secs("sums._strip_integral"), "s"),
            "transforms.calls": (sum(calls[t] for t in TRANSFORMED), "count"),
            "transforms.self_s": (secs(*TRANSFORMED), "s"),
            "transforms.terms": (trans_terms, "count"),
            "transforms.geo_tail_calls": (calls["transforms._geo_zeta_tail"], "count"),
            "transforms.geo_tail_self_s": (secs("transforms._geo_zeta_tail"), "s"),
            "transforms.term_ratio": (ratio(direct_terms, trans_terms), "ratio"),
            "closed.eval_calls": (calls["closed.evaluate_with_bound"], "count"),
            "closed.eval_self_s": (secs("closed.evaluate_with_bound"), "s"),
            "catalog.checks": (checks, "count"),
            "catalog.self_s": (secs("catalog.check_identity"), "s"),
            "catalog.route_attempts": (attempts, "count"),
            "catalog.first_rung_ratio": (ratio(2 * checks, attempts), "ratio"),
        }
        return {k: (v, unit, n) for k, (v, unit) in values.items()}

    def write(self, path):
        """Spans as raw int64 rows (see `columns` in the .json beside them)."""
        with open(path, "wb") as f:
            self._data.tofile(f)
        header = {
            "columns": ["name", "parent", "request", "start_ns", "end_ns"],
            "dtype": "int64",
            "byteorder": sys.byteorder,
            "names": self.names,
            "spans": len(self._data) // _FIELDS,
            "terms_used": sorted(self._terms.items()),
        }
        path.with_suffix(".json").write_text(json.dumps(header))
