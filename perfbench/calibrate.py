"""Machine-speed reference for the benchmark's timings.

On a shared host the same pure-Python work can take up to 2.5 times longer
for tens of seconds at a time, which no affordable run length averages away.
So every timed round is bracketed by a fixed calibration kernel that does
not touch the package, and the round's times are scaled by
``REFERENCE_S / kernel time``: they read as if measured on a machine on
which the kernel takes ``REFERENCE_S``.  A change to the program still moves
them; a change in the speed of the machine mostly does not.  The kernel mixes
what the package spends its time on: backtracking over sets, parsing
edge-list text into tuples, building adjacency sets, sorting, and exact
rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Fixed forever: changing it rescales every time metric.
REFERENCE_S = 0.004

_TEXT = "".join(f"e {i % 211} {(i * 7919) % 223}\n" for i in range(2000))


def _queens(n: int) -> int:
    count = 0
    cols: set[int] = set()
    d1: set[int] = set()
    d2: set[int] = set()

    def place(r: int) -> None:
        nonlocal count
        if r == n:
            count += 1
            return
        for c in range(n):
            if c in cols or r - c in d1 or r + c in d2:
                continue
            cols.add(c)
            d1.add(r - c)
            d2.add(r + c)
            place(r + 1)
            cols.discard(c)
            d1.discard(r - c)
            d2.discard(r + c)

    place(0)
    return count


def kernel() -> int:
    """The fixed work; its result is checked so it cannot be skipped."""
    solutions = _queens(7) + _queens(7)
    adj: list[set[int]] = [set() for _ in range(224)]
    for line in _TEXT.splitlines():
        fields = line.split()
        u, v = int(fields[1]), int(fields[2])
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    pairs = sorted((u, v) for u in range(224) for v in adj[u] if u < v)
    total = sum((Fraction(u + 1, v + 1) for u, v in pairs[:300]), Fraction(0))
    return solutions + len(pairs) + total.denominator % 7


_EXPECTED = kernel()


def kernel_seconds(repeats: int = 2) -> float:
    """Fastest of ``repeats`` timed kernel runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        result = kernel()
        best = min(best, perf_counter() - t0)
        if result != _EXPECTED:
            raise RuntimeError("calibration kernel gave a different result")
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns times measured between two kernel timings into
    times at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
