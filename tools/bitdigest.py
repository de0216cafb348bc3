"""Bit digests of the benchmark workloads' outputs.

    python3 tools/bitdigest.py [--seed N] [--limit N] [--src DIR]

For each workload in perfbench/workloads.py, which it reads and does not
change, it runs the seed's requests once, untimed and unchecked: as many as
a benchmark run sends, or the first --limit of them.  It prints one line per
workload: its name, the number of requests and a SHA-256 over every output,
each float written as float.hex.  That covers the values, bounds, term
counts and methods of a SumResult; the values, differences, budget and pass
state of an IdentityReport; and for a request that raises a ZetaSumsError,
the error's type and message.  Two library trees with equal digests gave
the same bits on every request.

The library is imported from the repository's src/, or from --src.  Only
the standard library is needed.
"""

import argparse
import enum
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def canonical(obj):
    """A string that determines obj's bits: floats as float.hex, records and
    tuples by their fields in order, dicts by sorted key."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, tuple):
        return f"{type(obj).__name__}({','.join(map(canonical, obj))})"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{canonical(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, (bool, int, str)) or obj is None:
        return repr(obj)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(zs, wl, requests):
    """SHA-256 over the canonical outputs of the requests, one line each."""
    h = hashlib.sha256()
    for params in requests:
        try:
            line = canonical(wl.call(zs, params))
        except zs.ZetaSumsError as exc:
            line = f"!{type(exc).__name__}:{exc}"
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--limit", type=int, default=None, help="digest only the first N requests")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding zetasums")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import zetasums as zs
    from workloads import WORKLOADS

    print(f"zetasums from {Path(zs.__file__).parent}, seed {args.seed}")
    for name, wl in WORKLOADS.items():
        requests = wl.requests(zs, args.seed, wl.per_run)[: args.limit]
        print(f"{name} {len(requests)} {digest(zs, wl, requests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
