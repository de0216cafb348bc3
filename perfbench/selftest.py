"""Self-test of the zetasums benchmark.

    python3 perfbench/selftest.py [--seed N]

Run from the repository root.  For every workload it checks that two traced
runs with the same seed report identical deterministic per-layer metrics
(every count and ratio, among them sums.direct_terms, transforms.terms,
transforms.term_ratio, special.hurwitz_calls, catalog.route_attempts and
trace.failed), that two untraced runs with the same seed attempt and fail
the same requests, and that another seed gives other inputs.  Exits non-zero
if any of these checks fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import load_library
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
DETERMINISTIC_UNITS = ("count", "ratio")
RUN_TIMEOUT_S = 600


def result(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def traced_counts(workload, seed):
    metrics = result(workload, seed, 1)["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in DETERMINISTIC_UNITS}


def outcome_counts(workload, seed):
    res = result(workload, seed, 0)
    return res["attempted"], res["failed"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    zs = load_library()
    ok = True
    for name, wl in WORKLOADS.items():
        first = wl.requests(zs, args.seed, 50)
        other = wl.requests(zs, args.seed + 1, 50)
        again = wl.requests(zs, args.seed, 50)
        inputs_ok = first == again and first != other
        runs = [traced_counts(name, args.seed) for _ in range(2)]
        diff = {k: (runs[0][k], runs[1].get(k)) for k in runs[0] if runs[0][k] != runs[1].get(k)}
        outcomes = [outcome_counts(name, args.seed) for _ in range(2)]
        same_outcomes = outcomes[0] == outcomes[1]
        ok = ok and inputs_ok and not diff and same_outcomes
        print(f"{name}: inputs {'ok' if inputs_ok else 'FAIL'}, "
              f"{len(runs[0])} counters {'identical' if not diff else f'DIFFER {diff}'}, "
              f"attempted/failed {outcomes[0]}"
              f"{'' if same_outcomes else f' DIFFER from {outcomes[1]}'}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
