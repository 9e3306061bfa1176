"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --seeds 1-10

Every workload of ``BENCHMARK.json`` runs once per seed, for the file's
``run_seconds``.  For each end-to-end metric it prints the median over the
runs and the distance between the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args()

    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(failed)}")
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {m['name']:<12} median {med:10.4f} {m['unit']:<3} "
                  f"IQR/median {(q3 - q1) / med:.4f}  (bound {m['bound']})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
