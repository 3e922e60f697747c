"""Work done in a fresh interpreter, started by run.py.

    child.py setup                         time the package import
    child.py memory <workload> <seed> <out>  run the memory pass, report peak memory

Each mode prints one JSON line on stdout.  ``setup`` imports only ``time``,
``sys`` and the calibration loop before it starts the clock, and scales the
import time by loops timed right before and after it.
"""

import sys
import time

if sys.argv[1] == "setup":
    from calib import calibrate, speed

    before = calibrate()
    t0 = time.perf_counter()
    import poincarewave  # noqa: F401
    import poincarewave.cli  # noqa: F401

    dt = time.perf_counter() - t0
    print('{"import_s": %r}' % (dt * speed(before, calibrate())))
    sys.exit(0)

import json

import workloads as W

workload, seed, out = sys.argv[2], int(sys.argv[3]), sys.argv[4]
if workload == "kernel-tail":
    results = [W.eval_point(pt) for pt in W.kernel_round(seed, 0)]
    with open(out, "w") as fh:
        fh.write(W.dump_values(results))
    rc = 0
else:
    from poincarewave import cli

    rc = cli.main(W.memory_pass(workload, seed).argv + [f"--out={out}"])
# VmHWM, not getrusage: after vfork and exec, ru_maxrss also counts the
# peak of the parent that started this interpreter.
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"rc": rc, "peak_kb": hwm_kb}))
