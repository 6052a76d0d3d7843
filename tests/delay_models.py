"""Delay models shared by the test suites."""

import numpy as np

from repro.netlist.delay import FREE_OPS, DelayModel


class HiddenTableDelay(DelayModel):
    """A delay model whose identity hides inside a large numpy array.

    ``repr`` of arrays beyond numpy's summarization threshold (1000
    elements) elides the middle, so two instances differing only there
    render the same :func:`~repro.netlist.delay.delay_signature`.  Any
    memo keyed on that signature hands one model's answers to the other.
    """

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.int64)

    def assign(self, circuit):
        return [
            0 if g.op in FREE_OPS else int(self.table[i % self.table.size])
            for i, g in enumerate(circuit.gates)
        ]


def aliasing_pair():
    """Two models with one signature but different delays: ``(fast, slow)``."""
    base = np.ones(1001, dtype=np.int64)
    slow = base.copy()
    slow[10:40] = 50  # hidden inside the elided repr region
    return HiddenTableDelay(base), HiddenTableDelay(slow)
