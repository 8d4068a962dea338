#!/usr/bin/env python3
"""Times a fixed compute loop on each CPU this process may use, in turn.

    python3 perfbench/vcpu_speed.py [rounds]

Prints one line per round with the best of three loop times (ms) on each
CPU.  On a virtual machine whose vCPUs share physical cores with other
guests, the times differ between vCPUs and change from round to round;
that is the drift README.md ("Steadiness") describes.
"""

import os
import sys
import time


def loop_ms():
    t0 = time.perf_counter()
    s = 0
    for i in range(300000):
        s += i * i
    return (time.perf_counter() - t0) * 1e3


def main():
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for _ in range(rounds):
            row = []
            for c in cpus:
                os.sched_setaffinity(0, {c})
                loop_ms()
                row.append(min(loop_ms() for _ in range(3)))
            print(" ".join(f"cpu{c}={t:.1f}" for c, t in zip(cpus, row)), flush=True)
            time.sleep(1)
    finally:
        os.sched_setaffinity(0, cpus)


if __name__ == "__main__":
    main()
