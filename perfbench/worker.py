"""One round of a workload in a fresh interpreter: set up, run timed, check.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1] [--setup-only]

Prints one JSON line.  ``start`` is ``time.perf_counter()`` at the start of
the timed phase; on Linux that clock is the system-wide monotonic clock, so
``run.py`` subtracts the moment it spawned this interpreter to get the
set-up time.  With ``--setup-only`` the round stops there.  The checks run
after the timed phase and after peak memory is read.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children, user + system."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import compedge
    import checks
    import workloads
    from tracer import Tracer

    inp = workloads.make_inputs(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"start": time.perf_counter()}))
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install(compedge)
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    ops = workloads.run_round(inp)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = checks.check_round(args.workload, args.seed, ops)
    check_s: Counter = Counter()
    for op in ops:
        if op.kind == "graph" and op.error is None:
            check_s.update({k: v / 1000.0 for k, v in op.result.timings_ms.items()})
    result = {
        "start": start,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(1 for p in problems if p),
        "wrong": sum(1 for op, p in zip(ops, problems) if p and op.error is None),
        "problems": [f"{op.label}: {m}" for op, p in zip(ops, problems) for m in p][:10],
        "check_s": dict(check_s),
    }
    if args.trace:
        result["layers"] = {k: v for k, (v, _) in tracer.metrics().items()}
        result["absent"] = tracer.absent
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
