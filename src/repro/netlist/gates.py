"""Boolean gate primitives and the combinational circuit graph.

A :class:`Circuit` is a feed-forward DAG.  Nets are integer handles; each
net is driven either by a primary input or by exactly one gate.  Gates are
stored in creation order, which the builder API guarantees is a topological
order (a gate may only reference nets that already exist), so simulators and
analyzers can process ``circuit.gates`` front to back without sorting.

The primitive set is chosen so that each gate maps naturally onto a single
FPGA LUT: variable-fanin AND/OR/XOR (and their complements), NOT/BUF, 3-input
majority (``MAJ``, the carry function of a full adder) and a 2:1 multiplexer.
A full adder is therefore two gates — ``XOR(a, b, cin)`` for the sum and
``MAJ(a, b, cin)`` for the carry — mirroring how synthesis tools map adders
onto LUT + carry logic.
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: op name -> (min fanin, max fanin); None means unbounded
OPS: Dict[str, Tuple[int, Optional[int]]] = {
    "CONST0": (0, 0),
    "CONST1": (0, 0),
    "BUF": (1, 1),
    "NOT": (1, 1),
    "AND": (2, None),
    "OR": (2, None),
    "XOR": (2, None),
    "NAND": (2, None),
    "NOR": (2, None),
    "XNOR": (2, None),
    "MAJ": (3, 3),
    "MUX": (3, 3),  # inputs (sel, a, b): out = a when sel=0 else b
    "LUT": (1, 6),  # arbitrary truth table, FPGA LUT6 style
}


class Gate(NamedTuple):
    """One combinational gate.

    A named tuple, so a gate carries no per-instance ``__dict__``: large
    netlists hold thousands of them.

    Attributes
    ----------
    op:
        Operation name, a key of :data:`OPS`.
    inputs:
        Input net handles (order matters for ``MUX`` and ``LUT``).
    output:
        The single output net handle.
    table:
        For ``LUT`` gates only: the truth table, ``table[idx]`` with
        ``idx = sum(input_i << i)`` (input 0 is the least significant
        index bit).
    """

    op: str
    inputs: Tuple[int, ...]
    output: int
    table: Optional[Tuple[int, ...]] = None

    @property
    def fanin(self) -> int:
        return len(self.inputs)


@functools.lru_cache(maxsize=4096)
def _lut_table(table: Tuple[int, ...], fanin: int) -> Tuple[int, ...]:
    """*table* checked as the truth table of a *fanin*-input LUT.

    Returns the entries as ints; raises :class:`ValueError` on a wrong
    length or a non-0/1 entry.  Memoised: builders emit the same few
    tables thousands of times, so each distinct table is checked once.
    """
    tbl = tuple(int(b) for b in table)
    if len(tbl) != 2 ** fanin:
        raise ValueError(
            f"LUT table must have {2 ** fanin} entries, got {len(tbl)}"
        )
    if any(b not in (0, 1) for b in tbl):
        raise ValueError("LUT table entries must be 0/1")
    return tbl


@functools.lru_cache(maxsize=4096)
def lut_cofactor(
    table: Tuple[int, ...], fixed: Tuple[Optional[int], ...]
) -> Tuple[int, ...]:
    """The truth table left when some LUT inputs are tied to constants.

    ``fixed[k]`` is input *k*'s constant value (0/1), or None when the
    input is live; the result is the table over the live inputs, in
    their original order.  Pure and memoised: the constant folding of
    :meth:`Circuit.gate` and :class:`~repro.core.ops.NetOps` both read
    it, and a builder re-folds the same few tables many times.
    """
    live = [k for k, v in enumerate(fixed) if v is None]
    base = 0
    for k, v in enumerate(fixed):
        if v is not None:
            base |= v << k
    sub_table = []
    for m in range(2 ** len(live)):
        idx = base
        for j, k in enumerate(live):
            idx |= ((m >> j) & 1) << k
        sub_table.append(table[idx])
    return tuple(sub_table)


class Circuit:
    """A combinational netlist with a builder API.

    Example
    -------
    >>> c = Circuit("half_adder")
    >>> a, b = c.input("a"), c.input("b")
    >>> c.output("sum", c.gate("XOR", a, b))
    >>> c.output("carry", c.gate("AND", a, b))
    >>> c.num_gates
    2
    """

    def __init__(self, name: str = "circuit", fold_constants: bool = True) -> None:
        self.name = name
        self.fold_constants = fold_constants
        self.gates: List[Gate] = []
        self.input_nets: List[int] = []
        self.input_names: List[str] = []
        self.output_map: Dict[str, int] = {}
        self._num_nets = 0
        self._driven: List[bool] = []
        self._driver: List[Optional[int]] = []  # gate index or None for inputs
        self._fanout_count: List[int] = []
        self._const_val: Dict[int, int] = {}  # nets with known constant value
        self._const_nets: Dict[int, int] = {}  # value -> canonical const net
        self._frozen = False

    def freeze(self) -> "Circuit":
        """Make the netlist read-only (shareable) and return it.

        ``input``/``gate``/``output`` raise :class:`RuntimeError` from
        then on; derived-data memos stay settable.
        """
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError(
                f"circuit {self.name!r} is frozen (shared); derive a new "
                f"circuit instead of mutating it"
            )

    # ------------------------------------------------------------------ nets
    @property
    def num_nets(self) -> int:
        return self._num_nets

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def _new_net(self) -> int:
        net = self._num_nets
        self._num_nets += 1
        self._driven.append(False)
        self._driver.append(None)
        self._fanout_count.append(0)
        return net

    def input(self, name: Optional[str] = None) -> int:
        """Create a primary input net."""
        self._check_mutable()
        net = self._new_net()
        self._driven[net] = True
        self.input_nets.append(net)
        self.input_names.append(name if name is not None else f"in{net}")
        return net

    def inputs(self, count: int, prefix: str = "in") -> List[int]:
        """Create *count* primary inputs named ``prefix0 .. prefix{count-1}``."""
        return [self.input(f"{prefix}{i}") for i in range(count)]

    def output(self, name: str, net: int) -> None:
        """Mark *net* as a primary output under *name*."""
        self._check_mutable()
        self._check_net(net)
        if name in self.output_map:
            raise ValueError(f"duplicate output name {name!r}")
        self.output_map[name] = net

    def _check_net(self, net: int) -> None:
        if not 0 <= net < self._num_nets:
            raise ValueError(f"unknown net {net}")
        if not self._driven[net]:
            raise ValueError(f"net {net} is used before being driven")

    # ----------------------------------------------------------------- gates
    def gate(
        self,
        op: str,
        *input_nets: int,
        table: Optional[Sequence[int]] = None,
    ) -> int:
        """Add a gate and return its output net.

        When :attr:`fold_constants` is set (the default), gates whose
        inputs include known constants are simplified the way a synthesis
        tool's constant-propagation pass would: tie-offs are absorbed,
        fully-determined gates become constants, and pass-through gates
        return the existing net — so datapaths built with constant operands
        (e.g. fixed filter coefficients) shrink to their live logic.
        """
        self._check_mutable()
        if op not in OPS:
            raise ValueError(f"unknown op {op!r}")
        lo, hi = OPS[op]
        if len(input_nets) < lo or (hi is not None and len(input_nets) > hi):
            raise ValueError(
                f"{op} expects fanin in [{lo}, {hi}], got {len(input_nets)}"
            )
        for net in input_nets:
            self._check_net(net)
        tbl: Optional[Tuple[int, ...]] = None
        if op == "LUT":
            if table is None:
                raise ValueError("LUT gates require a truth table")
            tbl = _lut_table(tuple(table), len(input_nets))
        elif table is not None:
            raise ValueError(f"op {op} does not take a truth table")

        if self.fold_constants:
            folded = self._fold(op, list(input_nets), tbl)
            if folded is not None:
                return folded
        return self._emit(op, tuple(input_nets), tbl)

    def _emit(
        self, op: str, inputs: Tuple[int, ...], table: Optional[Tuple[int, ...]]
    ) -> int:
        out = self._new_net()
        self._driven[out] = True
        self._driver[out] = len(self.gates)
        self.gates.append(Gate(op, inputs, out, table))
        for net in inputs:
            self._fanout_count[net] += 1
        return out

    def _const_net(self, value: int) -> int:
        """Canonical constant net for *value* (created on first use)."""
        net = self._const_nets.get(value)
        if net is None:
            net = self._emit("CONST1" if value else "CONST0", (), None)
            self._const_nets[value] = net
            self._const_val[net] = value
        return net

    def _fold(
        self,
        op: str,
        inputs: List[int],
        table: Optional[Tuple[int, ...]],
    ) -> Optional[int]:
        """Constant-propagate one gate; None means 'emit it unchanged'."""
        cv = self._const_val
        if op in ("CONST0", "CONST1"):
            return self._const_net(1 if op == "CONST1" else 0)
        if op == "BUF":
            return inputs[0]
        if op == "NOT":
            v = cv.get(inputs[0])
            return None if v is None else self._const_net(v ^ 1)

        if op in ("AND", "NAND", "OR", "NOR"):
            absorb = 0 if op in ("AND", "NAND") else 1
            invert_out = op in ("NAND", "NOR")
            live: List[int] = []
            for net in inputs:
                v = cv.get(net)
                if v is None:
                    if net not in live:
                        live.append(net)
                elif v == absorb:
                    return self._const_net(absorb ^ (1 if invert_out else 0))
            if not live:
                result = absorb ^ 1
                return self._const_net(result ^ (1 if invert_out else 0))
            if len(live) == 1:
                return self.gate("NOT", live[0]) if invert_out else live[0]
            if len(live) == len(inputs) and live == inputs:
                return None
            base = "AND" if op in ("AND", "NAND") else "OR"
            out_op = ("N" + base) if invert_out else base
            return self._emit(out_op, tuple(live), None)

        if op in ("XOR", "XNOR"):
            flip = 1 if op == "XNOR" else 0
            parity: Dict[int, int] = {}
            order: List[int] = []
            for net in inputs:
                v = cv.get(net)
                if v is None:
                    if net not in parity:
                        parity[net] = 0
                        order.append(net)
                    parity[net] ^= 1
                else:
                    flip ^= v
            live = [net for net in order if parity[net]]
            if not live:
                return self._const_net(flip)
            if len(live) == 1:
                return self.gate("NOT", live[0]) if flip else live[0]
            if not flip and live == inputs:
                return None
            return self._emit("XNOR" if flip else "XOR", tuple(live), None)

        if op == "MAJ":
            vals = [cv.get(net) for net in inputs]
            ones = vals.count(1)
            zeros = vals.count(0)
            live = [n for n, v in zip(inputs, vals) if v is None]
            if ones >= 2:
                return self._const_net(1)
            if zeros >= 2:
                return self._const_net(0)
            if ones == 1 and zeros == 1:
                return live[0]
            if ones == 1:
                return self.gate("OR", *live)
            if zeros == 1:
                return self.gate("AND", *live)
            return None

        if op == "MUX":
            sel, a, b = inputs
            vs, va, vb = cv.get(sel), cv.get(a), cv.get(b)
            if vs is not None:
                return b if vs else a
            if va is not None and vb is not None:
                if va == vb:
                    return self._const_net(va)
                if va == 0:  # (0, 1): out = sel
                    return sel
                return self.gate("NOT", sel)  # (1, 0): out = NOT sel
            if va is not None:
                # out = a when sel=0 else b
                if va == 0:
                    return self.gate("AND", sel, b)
                return self.gate("OR", self.gate("NOT", sel), b)
            if vb is not None:
                if vb == 0:
                    return self.gate("AND", self.gate("NOT", sel), a)
                return self.gate("OR", sel, a)
            return None

        if op == "LUT":
            assert table is not None
            fixed = tuple(cv.get(net) for net in inputs)
            live_nets = [net for net, v in zip(inputs, fixed) if v is None]
            if len(live_nets) == len(inputs):
                if len(set(table)) == 1:
                    return self._const_net(table[0])
                return None
            sub_table = lut_cofactor(table, fixed)
            if len(set(sub_table)) == 1:
                return self._const_net(sub_table[0])
            if len(live_nets) == 1:
                if sub_table == (0, 1):
                    return live_nets[0]
                if sub_table == (1, 0):
                    return self.gate("NOT", live_nets[0])
            return self._emit("LUT", tuple(live_nets), sub_table)

        return None  # pragma: no cover - all ops handled above

    def lut(self, table: Sequence[int], *input_nets: int) -> int:
        """Add a LUT gate: ``out = table[sum(input_i << i)]``."""
        return self.gate("LUT", *input_nets, table=table)

    # ------------------------------------------------------- common helpers
    def const0(self) -> int:
        return self.gate("CONST0")

    def const1(self) -> int:
        return self.gate("CONST1")

    def not_(self, a: int) -> int:
        return self.gate("NOT", a)

    def and_(self, *nets: int) -> int:
        return self.gate("AND", *nets)

    def or_(self, *nets: int) -> int:
        return self.gate("OR", *nets)

    def xor(self, *nets: int) -> int:
        return self.gate("XOR", *nets)

    def mux(self, sel: int, a: int, b: int) -> int:
        """2:1 multiplexer: *a* when ``sel = 0``, *b* when ``sel = 1``."""
        return self.gate("MUX", sel, a, b)

    def full_adder(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        """Full adder mapped as two LUT-level gates: ``(sum, carry)``."""
        return self.gate("XOR", a, b, cin), self.gate("MAJ", a, b, cin)

    def half_adder(self, a: int, b: int) -> Tuple[int, int]:
        """Half adder: ``(sum, carry)``."""
        return self.gate("XOR", a, b), self.gate("AND", a, b)

    # ------------------------------------------------------------- analysis
    def driver_of(self, net: int) -> Optional[Gate]:
        """The gate driving *net*, or None for a primary input."""
        idx = self._driver[net]
        return None if idx is None else self.gates[idx]

    def fanout_of(self, net: int) -> int:
        """Number of gate inputs this net feeds (outputs not counted)."""
        return self._fanout_count[net]

    def validate(self) -> None:
        """Sanity-check structural invariants (used by tests)."""
        seen_outputs = set()
        for gate in self.gates:
            if gate.output in seen_outputs:
                raise AssertionError(f"net {gate.output} driven twice")
            seen_outputs.add(gate.output)
            for net in gate.inputs:
                if net >= gate.output and self._driver[net] is not None:
                    drv = self._driver[net]
                    if self.gates[drv].output >= gate.output:
                        raise AssertionError("gate order is not topological")
        for name, net in self.output_map.items():
            if not self._driven[net]:
                raise AssertionError(f"output {name!r} is undriven")

    def stats(self) -> Dict[str, int]:
        """Gate-count statistics keyed by op (plus totals)."""
        counts: Dict[str, int] = {}
        for gate in self.gates:
            counts[gate.op] = counts.get(gate.op, 0) + 1
        counts["total_gates"] = len(self.gates)
        counts["total_nets"] = self._num_nets
        counts["inputs"] = len(self.input_nets)
        counts["outputs"] = len(self.output_map)
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, gates={self.num_gates}, "
            f"nets={self.num_nets}, inputs={len(self.input_nets)}, "
            f"outputs={len(self.output_map)})"
        )
