"""Logic-operation providers for the generic borrow-save kernels.

The online operators are described once, in :mod:`repro.core.kernels`, in
terms of abstract single-bit operations.  Two providers execute them:

* :class:`IntOps` — operates on Python ints (0/1) immediately, yielding the
  bit-exact *reference* implementation used for correctness oracles and the
  stage-level timing model;
* :class:`NetOps` — emits gates into a :class:`repro.netlist.Circuit`,
  yielding the *hardware* implementation used for gate-level timing
  experiments.

Because both run the identical kernel code, the netlist is cycle- and
bit-equivalent to the reference by construction (and the test-suite checks
it anyway).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.netlist.gates import Circuit, lut_cofactor


class LogicOps:
    """Abstract single-bit logic operations over some bit domain."""

    #: whether the residual-range assertion in ``om_stage`` can be
    #: evaluated on this provider's bit values
    checks_residual = False

    def const(self, value: int):
        raise NotImplementedError

    def not_(self, a):
        raise NotImplementedError

    def xor3(self, a, b, c):
        raise NotImplementedError

    def maj3(self, a, b, c):
        raise NotImplementedError

    def and2(self, a, b):
        raise NotImplementedError

    def or2(self, a, b):
        raise NotImplementedError

    def lut(self, table: Sequence[int], bits):
        """``table[sum(bit_i << i)]`` — 6-input LUT semantics."""
        raise NotImplementedError


class IntOps(LogicOps):
    """Immediate evaluation on Python ints — the reference bit domain."""

    checks_residual = True

    def const(self, value: int) -> int:
        if value not in (0, 1):
            raise ValueError("const must be 0 or 1")
        return value

    def not_(self, a: int) -> int:
        return a ^ 1

    def xor3(self, a: int, b: int, c: int) -> int:
        return a ^ b ^ c

    def maj3(self, a: int, b: int, c: int) -> int:
        return (a & b) | (a & c) | (b & c)

    def and2(self, a: int, b: int) -> int:
        return a & b

    def or2(self, a: int, b: int) -> int:
        return a | b

    def lut(self, table: Sequence[int], bits: Sequence[int]) -> int:
        idx = 0
        for k, bit in enumerate(bits):
            idx |= bit << k
        return table[idx]


class NumpyOps(IntOps):
    """Vectorized evaluation on numpy uint8 arrays (batch of samples).

    Bits are either Python int constants (0/1) or ``(S,)`` uint8 arrays;
    the bitwise operators of :class:`IntOps` broadcast over both, so only
    table lookup needs an override.  Used by the stage-level Monte-Carlo
    timing simulations where millions of operand samples are pushed through
    the online-multiplier recurrence at once.
    """

    checks_residual = False

    def lut(self, table: Sequence[int], bits) -> "np.ndarray":
        import numpy as np

        idx = None
        for k, bit in enumerate(bits):
            term = bit << k
            idx = term if idx is None else idx + term
        if isinstance(idx, int):
            return table[idx]
        return np.asarray(table, dtype=np.uint8)[np.asarray(idx, dtype=np.intp)]


class PackedOps(LogicOps):
    """Vectorized evaluation on bit-packed uint64 word arrays.

    The packed sibling of :class:`NumpyOps`: a batch of ``S`` samples is
    ``ceil(S / 64)`` words with one sample per bit (layout of
    :mod:`repro.netlist.packing`), so every kernel operation processes 64
    samples per machine word.  Constants are all-zeros / all-ones scalar
    words, which numpy broadcasts against the word arrays; NOT is
    XOR-with-all-ones; LUTs evaluate as constant-folded Shannon mux
    cones.  Drives the ``backend="packed"`` stage-level Monte-Carlo path
    (:meth:`repro.core.OnlineMultiplier.wave`).
    """

    checks_residual = False

    def const(self, value: int):
        from repro.netlist.packing import FULL_WORD, ZERO_WORD

        if value not in (0, 1):
            raise ValueError("const must be 0 or 1")
        return FULL_WORD if value else ZERO_WORD

    def not_(self, a):
        from repro.netlist.packing import FULL_WORD

        return a ^ FULL_WORD

    def xor3(self, a, b, c):
        return a ^ b ^ c

    def maj3(self, a, b, c):
        return (a & b) | (a & c) | (b & c)

    def and2(self, a, b):
        return a & b

    def or2(self, a, b):
        return a | b

    def lut(self, table: Sequence[int], bits):
        from repro.netlist.packing import lut_packed

        out = lut_packed(table, bits)
        if isinstance(out, int):
            return self.const(out)
        return out


class NetOps(LogicOps):
    """Gate-emitting provider — bits are net handles in a circuit."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None

    def const(self, value: int) -> int:
        if value == 0:
            if self._const0 is None:
                self._const0 = self.circuit.const0()
            return self._const0
        if value == 1:
            if self._const1 is None:
                self._const1 = self.circuit.const1()
            return self._const1
        raise ValueError("const must be 0 or 1")

    def _is_const(self, net: int, which: int) -> bool:
        return (which == 0 and net == self._const0) or (
            which == 1 and net == self._const1
        )

    def not_(self, a: int) -> int:
        if self._is_const(a, 0):
            return self.const(1)
        if self._is_const(a, 1):
            return self.const(0)
        return self.circuit.not_(a)

    def xor3(self, a: int, b: int, c: int) -> int:
        nets = [n for n in (a, b, c) if not self._is_const(n, 0)]
        if not nets:
            return self.const(0)
        if len(nets) == 1:
            return nets[0]
        return self.circuit.xor(*nets)

    def maj3(self, a: int, b: int, c: int) -> int:
        zeros = sum(self._is_const(n, 0) for n in (a, b, c))
        ones = sum(self._is_const(n, 1) for n in (a, b, c))
        nets = [
            n
            for n in (a, b, c)
            if not self._is_const(n, 0) and not self._is_const(n, 1)
        ]
        if ones >= 2:
            return self.const(1)
        if zeros >= 2:
            return self.const(0)
        if ones == 1 and zeros == 1:
            return nets[0]
        if ones == 1:
            return self.circuit.or_(*nets)
        if zeros == 1:
            return self.circuit.and_(*nets)
        return self.circuit.gate("MAJ", a, b, c)

    def and2(self, a: int, b: int) -> int:
        if self._is_const(a, 0) or self._is_const(b, 0):
            return self.const(0)
        if self._is_const(a, 1):
            return b
        if self._is_const(b, 1):
            return a
        return self.circuit.and_(a, b)

    def or2(self, a: int, b: int) -> int:
        if self._is_const(a, 1) or self._is_const(b, 1):
            return self.const(1)
        if self._is_const(a, 0):
            return b
        if self._is_const(b, 0):
            return a
        return self.circuit.or_(a, b)

    def lut(self, table: Sequence[int], bits: Sequence[int]) -> int:
        # constant-fold inputs that are tie-offs to shrink the LUT
        fixed = tuple(
            0 if b == self._const0 else 1 if b == self._const1 else None
            for b in bits
        )
        live = [b for b, v in zip(bits, fixed) if v is None]
        if len(live) == len(bits):
            return self.circuit.lut(table, *bits)
        sub_table = lut_cofactor(tuple(table), fixed)
        if len(set(sub_table)) == 1:
            return self.const(sub_table[0])
        return self.circuit.lut(sub_table, *live)
