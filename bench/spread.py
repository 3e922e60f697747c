"""Run the benchmark several times, one seed each, and print the spread.

    python3 bench/spread.py --workload W [--runs 10] [--seconds 10] [--first-seed 1]

For every metric it prints the median of the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median; and the share of failed operations of each run.
Runs are made one after another, each in its own process, killed and
reaped if it overruns.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res = one_run(args.workload, seed, args.seconds, args.trace)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    print(f"all correct: {all(r['correct'] for r in results)}; failed shares: "
          f"{sorted({r['failed'] / r['attempted'] for r in results})}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        print(f"{name:45s} median {med:.6g} {results[0]['metrics'][name]['unit']:10s} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
