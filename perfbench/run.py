"""zetasums benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ./src.  One
client runs a closed loop in this process: it sends the next request only
after the previous one completed, with no threads or subprocesses while
requests are timed.  Each request's inputs are drawn from the seed before its
timing starts, and its output is checked after its timing ends.

A request fails when it raises a ZetaSumsError, passes the workload's
deadline (it then counts at the deadline in the latencies), or gives a wrong
result: two routes that differ by more than the sum of their certified
bounds, or an identity check that does not pass.  Failures are counted in
`failed`; `correct` turns false only for output the checks cannot classify
at all (an exception outside ZetaSumsError, a non-finite value, a bound
that is not finite and positive).

A run sends a fixed number of requests, drawn from the seed, so that
`attempted` and `failed` repeat exactly for a seed.

--trace 0 runs each request once, checked; its outcome there is the
request's outcome.  It then replays the requests in rounds until --seconds
have passed since the checked run began.  The host is shared and its speed
drifts, so a fixed pure-Python reference loop is timed every 0.1 s between
requests, and each latency is rescaled to the loop's nominal speed (see
HostSpeed); a request's latency is the median of its rescaled samples.

It prints the end-to-end metrics: latency p50 and p90 (Harrell-Davis
estimates, see quantiles.py), throughput (successful requests per second of
the time spent in them), the share of requests that succeeded, the
geometric mean of the certified bound over the requested tolerance (the
ratio spans eight decades, so its median jumps between seeds), and set-up
time (median over fresh interpreters of `import zetasums` plus one small
certified call, rescaled alike).

--trace 1 runs every request untraced and then traced, under a longer
deadline, and prints the per-layer metrics of that traced run.  Rounds of
both while --seconds last give the tracing overhead; the spans of the first
traced run are written to perfbench/out/.

The last line of standard output is the JSON result.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from quantiles import harrell_davis
from reference import NOMINAL_S, at_nominal_speed, reference_loop
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Traced runs stretch the workload's deadline by this factor: tracing slows
# requests about twofold, and the per-layer counts must not depend on
# whether a slow request lands just before or after a deadline.
TRACE_DEADLINE_FACTOR = 2.0
SETUP_SPAWNS = 8
REFERENCE_PERIOD_S = 0.1
IMPORT_SPAWNS = 5
CHILD_TIMEOUT_S = 60
LAYER_MODULES = ("special", "sums", "closed", "transforms", "catalog", "cli")

_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import zetasums
zetasums.check_identity("2.1", s=3.0)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from reference import reference_loop
print(setup, *(reference_loop() for _ in range(3)))
"""


class Deadline(Exception):
    """Raised by SIGALRM inside a request that passed its deadline."""


def _on_alarm(signum, frame):
    raise Deadline


def load_library():
    """Import zetasums from ./src, or exit non-zero if it is not there."""
    init = SRC / "zetasums" / "__init__.py"
    if not init.is_file():
        sys.exit(f"no library at {init}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import zetasums

    if Path(zetasums.__file__).resolve() != init.resolve():
        sys.exit(f"imported zetasums from {zetasums.__file__}, not {init}")
    return zetasums


def _spawn(args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )


def setup_once():
    """Import plus one certified call in a fresh interpreter, timed inside it
    and rescaled to nominal host speed by the reference loop run right after
    it in the same interpreter."""
    out = _spawn(["-c", _SETUP_CHILD, str(SRC), str(HERE)]).stdout
    setup, *loops = map(float, out.split())
    return at_nominal_speed(setup, statistics.median(loops))


def import_seconds():
    """Per-module self import time (s), median over `-X importtime` spawns."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import zetasums.cli"
    samples = {m: [] for m in LAYER_MODULES}
    for k in range(IMPORT_SPAWNS + 1):
        err = _spawn(["-X", "importtime", "-c", code]).stderr
        for line in err.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = [x.strip() for x in line.split(":", 1)[-1].split("|")]
            if len(parts) == 3 and parts[2].startswith("zetasums."):
                mod = parts[2].split(".", 1)[1]
                if mod in samples and k > 0:
                    samples[mod].append(int(parts[0]) * 1e-6)
    return {m: statistics.median(v) for m, v in samples.items()}


def run_one(zs, wl, params, deadline_s, tracer=None, i=-1):
    """Run and check one request: (latency_s, outcome, bound_ratio), with
    outcome one of ok, wrong, error, timeout, invalid."""
    if tracer is not None:
        tracer.begin_request(i)
    out, outcome = None, None
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    t0 = time.perf_counter()
    try:
        # the alarm may still fire inside the inner finally; the outer
        # handlers catch it there too
        try:
            out = wl.call(zs, params)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        outcome = "timeout"
    except zs.ZetaSumsError:
        outcome = "error"
    except Exception:  # a crash is reported, not fatal to the run
        traceback.print_exc()
        outcome = "invalid"
    if tracer is not None:
        tracer.end_request()
    if outcome == "timeout":
        return deadline_s, outcome, None
    if outcome is not None:
        return t1 - t0, outcome, None
    well_formed, agrees, ratio = wl.check(zs, params, out)
    if not well_formed:
        return t1 - t0, "invalid", None
    return t1 - t0, ("ok" if agrees else "wrong"), ratio


class HostSpeed:
    """The host's speed over a run, from the reference loop (see
    reference.py) timed every REFERENCE_PERIOD_S between requests."""

    def __init__(self):
        self.times, self.durations = [], []

    def tick(self):
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= REFERENCE_PERIOD_S:
            self.durations.append(reference_loop())
            self.times.append(now)

    def rescale(self, t, latency):
        """`latency`, measured from time t, at the nominal host speed, with
        the loop's local time taken as the median of its two runs before t
        and two after it."""
        i = bisect.bisect_right(self.times, t)
        local = statistics.median(self.durations[max(0, i - 2): i + 2])
        return at_nominal_speed(latency, local)


def timed_run(zs, wl, params, host, deadline_s, tracer=None, i=-1):
    """run_one after a host-speed tick: (start time, record)."""
    host.tick()
    return time.perf_counter(), run_one(zs, wl, params, deadline_s, tracer, i)


def check_pass(zs, wl, requests, host):
    """One checked, timed run of each request.  Its outcomes are the run's
    outcomes: the request list is fixed by the seed, so `attempted` and
    `failed` repeat exactly for a seed.  Returns per request a list holding
    its first sample."""
    return [[timed_run(zs, wl, p, host, wl.deadline_s)] for p in requests]


def timing_rounds(zs, wl, requests, samples, host, until):
    """Replay the requests in rounds, one more latency sample each, until the
    clock passes `until`; returns the number of rounds begun.  A request
    that timed out already counts at the deadline and is not rerun; the
    outcome of a request stays the one of its checked run."""
    rounds = 0
    while time.perf_counter() < until:
        rounds += 1
        for p, s in zip(requests, samples):
            if time.perf_counter() >= until:
                break
            if s[0][1][1] != "timeout":
                s.append(timed_run(zs, wl, p, host, wl.deadline_s))
    return rounds


def request_records(samples, host):
    """Per request, its checked record with the latency replaced by the
    median over its samples of the latency at nominal host speed.  A
    request that timed out keeps the deadline as its latency."""
    records = []
    for s in samples:
        first = s[0][1]
        if first[1] == "timeout":
            records.append(first)
            continue
        lat = statistics.median(host.rescale(t, r[0]) for t, r in s)
        records.append((lat,) + first[1:])
    return records


def _count(records, outcome):
    return sum(1 for r in records if r[1] == outcome)


def throughput(records):
    """Successful requests per second of the time spent in them.  Failed
    requests are left out: they are counted against `attempted`, and their
    time, which a few hundred-millisecond failures near a pole dominate,
    moves with the seed far more than the time of the work that succeeds."""
    return _count(records, "ok") / sum(r[0] for r in records if r[1] == "ok")


def end_to_end(records, setup):
    lat = [r[0] for r in records]
    ratios = [r[2] for r in records if r[2] is not None]
    if not ratios:
        sys.exit("no request returned a result; nothing to report")
    ok = _count(records, "ok")
    n = len(records)
    return {
        "latency_p50_ms": (harrell_davis(lat, 0.5) * 1e3, "ms", n),
        "latency_p90_ms": (harrell_davis(lat, 0.9) * 1e3, "ms", n),
        "throughput_rps": (throughput(records), "1/s", n),
        "ok_ratio": (ok / n, "ratio", n),
        "bound_to_tol_gmean": (statistics.geometric_mean(ratios), "ratio", len(ratios)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "zetasums").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment():
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def _print_metrics(metrics):
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} (n={n})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    zs = load_library()
    wl = WORKLOADS[args.workload]
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    signal.signal(signal.SIGALRM, _on_alarm)

    count = wl.traced_per_run if args.trace else wl.per_run
    requests = wl.requests(zs, args.seed, count)
    if args.trace == 0:
        # set-up spawns sit before and after the requests, so that a burst
        # of load on the host reaches few of them; the first only warms the
        # file and bytecode caches
        setup_once()
        setup = [setup_once() for _ in range(SETUP_SPAWNS // 2)]
        # two untimed requests from another seed let first-call costs settle
        host = HostSpeed()
        check_pass(zs, wl, wl.requests(zs, args.seed + 1, 2), host)
        until = time.perf_counter() + args.seconds
        samples = check_pass(zs, wl, requests, host)
        rounds = timing_rounds(zs, wl, requests, samples, host, until)
        setup += [setup_once() for _ in range(SETUP_SPAWNS - len(setup))]
        print(f"replay rounds {rounds} (the last one may be partial)")
        speed = [NOMINAL_S / d for d in host.durations]
        print(f"host speed {statistics.median(speed):.3f} of nominal "
              f"(min {min(speed):.3f}, max {max(speed):.3f}, n={len(speed)})")
        records = request_records(samples, host)
        metrics = end_to_end(records, setup)
    else:
        imports = import_seconds()
        tracer = Tracer(zs)
        deadline_s = TRACE_DEADLINE_FACTOR * wl.deadline_s
        host = HostSpeed()
        until = time.perf_counter() + args.seconds
        # each request runs untraced, then traced right after it, so that a
        # change in host speed reaches both sides of the overhead alike
        plain, traced = [], []
        for i, p in enumerate(requests):
            plain.append([timed_run(zs, wl, p, host, deadline_s)])
            with tracer.installed():
                traced.append([timed_run(zs, wl, p, host, deadline_s, tracer, i)])
        records = [s[0][1] for s in traced]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.bin")
        metrics = tracer.layer_metrics(records)
        # more rounds, while the time lasts, only sharpen the overhead; their
        # spans are recorded, as tracing costs, and then dropped
        while time.perf_counter() < until:
            for i, (p, a, b) in enumerate(zip(requests, plain, traced)):
                if time.perf_counter() >= until:
                    break
                if a[0][1][1] == "timeout":
                    continue
                a.append(timed_run(zs, wl, p, host, deadline_s))
                with tracer.installed():
                    b.append(timed_run(zs, wl, p, host, deadline_s, tracer, i))
                tracer.reset()
        for mod, secs in imports.items():
            metrics[f"{mod}.import_s"] = (secs, "s", IMPORT_SPAWNS)
        rps = [throughput(request_records(x, host)) for x in (plain, traced)]
        metrics["trace.overhead_rps"] = (rps[0] - rps[1], "1/s", len(records))
        metrics["trace.failed"] = (
            len(records) - _count(records, "ok"), "count", len(records)
        )

    outcomes = {o: _count(records, o) for o in ("ok", "wrong", "error", "timeout", "invalid")}
    failed = len(records) - outcomes["ok"]
    print(f"requests {len(records)} " + " ".join(f"{k}={v}" for k, v in outcomes.items()))
    print(f"fail_ratio {failed / len(records):.6g} ({failed}/{len(records)})")
    _print_metrics(metrics)
    result = {
        "correct": outcomes["invalid"] == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
