"""How fast this machine runs Python right now, from a fixed reference kernel.

On a shared host the speed of the same code drifts by tens of percent over
seconds and minutes, for wall time and CPU time alike.  The benchmark
therefore times a short run of this kernel next to the work it measures and
reports every time at the nominal speed:

    time at nominal speed = measured time * (kernel rate now / NOMINAL_RATE)

The kernel is pure Python and independent of epwb: a walk over an
expression tree of about 8k nodes, with attribute access, dict lookups and
float arithmetic, the kind of work the program itself does.  The tree is
large enough that contention for the caches slows it too.  It must never change; a different kernel or
NOMINAL_RATE rescales every end-to-end time.  NOMINAL_RATE is the median
rate measured on a 2-vCPU Intel Xeon (2.1 GHz) with Python 3.11, so on that
machine the reported times read as seconds.
"""

from __future__ import annotations

import math
import time

NOMINAL_RATE = 500.0  # kernel calls per second at nominal speed


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right

    def value(self, env):
        if self.op == "var":
            return env[self.left]
        a = self.left.value(env)
        b = self.right.value(env)
        if self.op == "+":
            return a + b
        if self.op == "*":
            return a * b
        return math.sin(a) * b


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node("var", "t", None)
    return _Node("+*s"[depth % 3], _tree(depth - 1), _tree(depth - 1))


_TREE = _tree(13)


def _kernel() -> float:
    return _TREE.value({"t": 0.3})


def speed(seconds: float) -> float:
    """Kernel rate over about ``seconds``, as a fraction of NOMINAL_RATE."""
    clock = time.perf_counter
    start = clock()
    calls = 0
    while clock() - start < seconds:
        _kernel()
        calls += 1
    return calls / (clock() - start) / NOMINAL_RATE
