"""Does the memory traffic of an op move the host probe's reading?

    python3 perfbench/probe_check.py [--rounds N]

Each round runs three synthetic ops of the same arithmetic, back to
back, so they share one host speed state: ``small`` touches almost no
memory, ``heap`` also walks ~60 MB of Python objects and ``stream``
also copies a 64 MB buffer.  Each probe -- ``bench.Probe`` and a dict
probe (8000 random lookups over a ~4 MB working set) -- reads the host
right before and right after each op, as the benchmark's clock does
(probe, op, probe), and the reading after the op is kept.  It prints, per probe, the median over rounds of
each op's reading divided by the reading after ``small`` in the same
round.  A ratio of 1.000 means the op's footprint does not show in the
probe, so it cannot leak into the scaled op times.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402


def _arith() -> int:
    total = 0
    for i in range(200000):
        total += i * i
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=100)
    args = parser.parse_args()
    heap = [{"value": float(i), "next": i + 1} for i in range(250000)]
    buffer = bytearray(64 << 20)

    def walk_heap() -> None:
        _arith()
        total = 0.0
        for cell in heap:
            total += cell["value"]

    def stream() -> None:
        _arith()
        bytes(buffer)

    cells = [{"value": float(i)} for i in range(20000)]
    order = [(i * 7919) % 20000 for i in range(8000)]

    def dict_probe() -> float:
        t0 = time.perf_counter()
        total = 0.0
        for index in order:
            total += cells[index]["value"]
        return time.perf_counter() - t0

    ops = {"small": _arith, "heap": walk_heap, "stream": stream}
    readers = {"bench.Probe": bench.Probe(), "dict probe": dict_probe}
    readings = {(r, o): [] for r in readers for o in ops}
    for _ in range(args.rounds):
        for rname, read in readers.items():
            for oname, op in ops.items():
                read()
                op()
                readings[rname, oname].append(read())
    print(f"{'probe':12s} {'after':8s} {'median ms':>10s} {'vs small':>9s}")
    for rname in readers:
        base = readings[rname, "small"]
        for oname in ops:
            values = readings[rname, oname]
            ratio = statistics.median(v / b for v, b in zip(values, base))
            print(f"{rname:12s} {oname:8s} "
                  f"{statistics.median(values) * 1000:10.3f} {ratio:9.3f}")


if __name__ == "__main__":
    main()
