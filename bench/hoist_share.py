"""Fixed per-command share of a wf-spacetime pass, now and with the Lorentz
factor evaluated once per command (a hoist, simulated by memoizing
``assembly.lorentz_factor`` for the length of this script).

    python3 bench/hoist_share.py

Prints, for 1, 2, 3 and 4 points per axis, the fastest command time of a
few passes, with and without the memo.  The 1-row command is the fixed
cost of a command: parsing, set-up and one Lorentz evaluation.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from poincarewave import assembly, cli  # noqa: E402

REPS = {1: 60, 2: 40, 3: 20, 4: 10}
MEMO: dict = {}  # Lorentz factors of the running command, with the hoist


def command_s(n: int) -> float:
    best = float("inf")
    for i in range(REPS[n]):
        p = W.wf_pass("wf-spacetime", 1, i, n)
        MEMO.clear()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(p.argv))
        best = min(best, time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"{p.argv} exited {rc}")
    return best


def table(label: str) -> None:
    fixed = command_s(1)
    for n in REPS:
        t = command_s(n) if n > 1 else fixed
        print(f"{label:6s} rows {n ** 4:4d}  command {t * 1e3:8.2f} ms  "
              f"fixed share {fixed / t:.2f}")


def main() -> int:
    table("now")
    orig = assembly.lorentz_factor

    def once(cfg, ang):
        key = (id(cfg), ang)
        if key not in MEMO:
            MEMO[key] = orig(cfg, ang)
        return MEMO[key]

    assembly.lorentz_factor = once
    try:
        table("hoist")
    finally:
        assembly.lorentz_factor = orig
    return 0


if __name__ == "__main__":
    sys.exit(main())
