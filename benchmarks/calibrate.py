"""A fixed pure-Python workload that gauges how fast this machine runs right now.

    python benchmarks/calibrate.py

It shares no code with qpartid, so no change to the program moves it.  Its
parts mirror the kinds of work the benchmark's workloads do: big-integer
convolutions of coefficient lists (qpoly), small multiplicative binomials
(verify-all), recursive descent that builds lists (oracle), and sorted,
indented JSON rendering (every report).  run.py times it in a fresh process
between the CLI children and divides their times by it, so that a slow phase
of a shared machine, which stretches both alike, cancels.
"""

from __future__ import annotations

import json

SCALE = 3


def convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def polynomials() -> int:
    base = [1, 1, 1, 1, 1]
    acc = 0
    for r in range(250 * SCALE):
        poly = [1]
        for _ in range(8 + r % 8):
            poly = convolve(poly, base)
        acc = (acc * 31 + sum(poly)) % (1 << 61)
    return acc


def choose(n: int, k: int) -> int:
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
    return out


def binomials() -> int:
    return sum(
        choose(n, k) % 1009 for _ in range(50 * SCALE) for n in range(40) for k in range(n + 1)
    )


def partitions(n: int) -> list[list[int]]:
    found: list[list[int]] = []
    prefix: list[int] = []

    def descend(remaining: int, cap: int) -> None:
        if remaining == 0:
            found.append(list(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part)
            prefix.pop()

    descend(n, n)
    return found


def enumeration() -> int:
    return sum(len(partitions(n)) for _ in range(SCALE) for n in range(30))


def rendering() -> int:
    rows = [
        {"id": f"row{i % 57}", "params": {"n": i % 13, "m": i % 7}, "pass": i % 3 > 0, "v": i * i}
        for i in range(4000 * SCALE)
    ]
    return len(json.dumps({"rows": rows}, indent=2, sort_keys=True))


if __name__ == "__main__":
    print(polynomials(), binomials(), enumeration(), rendering())
