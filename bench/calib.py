"""Machine-speed calibration: a fixed pure-Python kernel timed between ops.

On a shared virtual machine the same code runs up to 1.5x slower in some
stretches than in others.  A run samples the speed by timing
`unit()` in short bursts between ops, and scales each op's latency by the
speed sampled around it, so that the reported times read as if the
machine ran at its nominal speed.  The kernel belongs to the benchmark
and never calls latfree, so a change to the program cannot move it.

The kernel mixes what latfree's layers spend their time on: an exact
`Fraction` elimination (qmath, lp), an iterative tree walk with `Fraction`
arithmetic (expr), and a JSON round trip of a small report (cli).
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from fractions import Fraction

import exprgen as eg

F = Fraction

# One unit's time at the nominal speed: a round figure near the mean unit
# time on a shared 2-vCPU machine with Python 3.11.7, where it ranged from
# 0.45 to 0.8 ms.  Scaled latencies are in ms at this speed.
NOMINAL_UNIT_S = 0.0006
# a burst follows an op when this much op time has passed since the last;
# it runs for BURST_SHARE of that op time, and for at least BURST_UNITS
# units, so that long ops are sampled as densely as short ones
GAP_S = 0.10
BURST_SHARE = 0.12
BURST_UNITS = 5
# the burst each set-up interpreter runs after its op
SETUP_BURST_S = 0.04
# an op is scaled by this many units timed around it, half before and
# half after: the speed changes within a second, and on recorded runs
# the nearest 60 units tracked it better than any window of whole seconds
NEAREST_UNITS = 60

_MATRIX = [[F(((3 * i + 5 * j) % 11) - 5, 1 + (i + 2 * j) % 3) for j in range(5)] for i in range(5)]
_TREE = eg.add(
    eg.absv(eg.add(eg.absv(eg.sub(eg.var(1), eg.scale(2, eg.var(2)))), eg.scale(-3, eg.var(3)))),
    eg.sup(eg.scale(F(1, 2), eg.var(2)), eg.inf(eg.var(3), eg.scale(-2, eg.var(1)))),
    eg.pos(eg.sub(eg.var(1), eg.var(3))),
)
_POINTS = [[F(a, 3), F(-b, 7), F(a + b, 5)] for a in (1, 4) for b in (2, 5)]
_REPORT = {
    "verdict": "equal",
    "witness": ["3/7", "-11/5", "2"],
    "cells": 37,
    "pieces": [["1", "-2", "0"], ["-3", "1/2", "1"]],
}


def _determinant(rows) -> Fraction:
    a = [row[:] for row in rows]
    n = len(a)
    det = F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def unit() -> Fraction:
    """One calibration unit, about 0.5 ms; the result is fixed."""
    total = _determinant(_MATRIX)
    for x in _POINTS:
        total += eg.evaluate(_TREE, x)
    for _ in range(6):
        total += len(json.loads(json.dumps(_REPORT)))
    return total


class Speed:
    """Unit times sampled through a run, and the scale they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []  # mid-point of each timed unit
        self.units: list[float] = []  # its duration
        self._since = 0.0

    def burst(self, seconds: float = GAP_S * BURST_SHARE) -> None:
        n = 0
        start = time.perf_counter()
        while n < BURST_UNITS or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            unit()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.units.append(t1 - t0)
            n += 1
        self._since = 0.0

    def after_op(self, latency_s: float) -> None:
        self._since += latency_s
        if self._since >= GAP_S:
            self.burst(self._since * BURST_SHARE)

    def factor(self, start: float, end: float) -> float:
        """Mean time of the units around [start, end] over the nominal one:
        above 1 when the machine ran slow there.  The mean, not the
        median: the speed flips between two levels within milliseconds,
        and the share of time spent at each is what an op's latency
        feels."""
        i = bisect.bisect_left(self.times, (start + end) / 2)
        lo = max(0, min(i - NEAREST_UNITS // 2, len(self.times) - NEAREST_UNITS))
        return statistics.fmean(self.units[lo:lo + NEAREST_UNITS]) / NOMINAL_UNIT_S

    def run_factor(self) -> float:
        """The same over the whole run, for the printed notes."""
        return statistics.fmean(self.units) / NOMINAL_UNIT_S
