"""Compiled, bit-packed gate-level simulation engine.

:class:`WaveformSimulator` keeps one ``uint8`` lane per sample and walks
the gate list interpreting op names.  This module *compiles* a circuit
once — levelizing it by the same arrival-time computation the waveform
simulator uses, lowering every gate to an integer opcode — and then
evaluates batches with 64 samples packed per ``uint64`` word
(:mod:`repro.netlist.packing`).  Three things make it fast:

* **bit packing** — every bitwise gate op touches 1/8th of the memory the
  ``uint8`` engine does (and LUTs become constant-folded mux cones
  instead of giant gather indices);
* **windowed evaluation** — a gate's output can only change during
  ``[delay, arrival]``; rows after the arrival time are a single
  broadcast copy of the settled row instead of re-evaluated logic;
* **two process-wide memos** — :func:`shared_circuit` builds each
  operator netlist once and hands every consumer the same frozen
  :class:`Circuit`; :func:`compile_circuit` memoises compiled engines in
  an LRU keyed by ``(circuit fingerprint, exact delay assignment)``, the
  only place delays key anything.  The "build one operator, simulate
  many batches" pattern therefore pays construction and compilation
  once per process.

The engine exposes the same two entry points the repository already
uses: timing-free :meth:`CompiledCircuit.evaluate_packed` (the packed
counterpart of :func:`repro.netlist.sim.evaluate`) and a full
:meth:`CompiledCircuit.run` returning a :class:`SimulationResult`-
compatible waveform view that unpacks lazily.  It is bit-for-bit
equivalent to the waveform simulator at every time step — the
equivalence suite in ``tests/netlist/test_packed_equivalence.py``
enforces exactly that.

Use :func:`make_simulator` to pick an engine by name (``"packed"`` |
``"wave"``, or None for the default); ``"packed"`` falls back to the
waveform simulator automatically if compilation fails.
:func:`~repro.netlist.engines.resolve_backend` is the one place an
engine is chosen for a workload that does not name one.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.obs.metrics import metrics
from repro.netlist.delay import DelayModel, UnitDelay
from repro.netlist.engines import resolve_backend
from repro.netlist.gates import Circuit, OPS
from repro.netlist.packing import (
    FULL_WORD,
    lut_packed,
    pack_bits,
    packed_width,
    unpack_bits,
)
from repro.netlist.sim import (
    ArrayLike,
    SimulationResult,
    WaveformSimulator,
    prepare_batch_inputs,
)

# integer opcodes (the compiled program's instruction set)
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2
_OP_NAND = 3
_OP_NOR = 4
_OP_XNOR = 5
_OP_NOT = 6
_OP_BUF = 7
_OP_MAJ = 8
_OP_MUX = 9
_OP_LUT = 10
_OP_CONST0 = 11
_OP_CONST1 = 12

_OPCODES: Dict[str, int] = {
    "AND": _OP_AND,
    "OR": _OP_OR,
    "XOR": _OP_XOR,
    "NAND": _OP_NAND,
    "NOR": _OP_NOR,
    "XNOR": _OP_XNOR,
    "NOT": _OP_NOT,
    "BUF": _OP_BUF,
    "MAJ": _OP_MAJ,
    "MUX": _OP_MUX,
    "LUT": _OP_LUT,
    "CONST0": _OP_CONST0,
    "CONST1": _OP_CONST1,
}


def _eval_packed_op(
    opcode: int,
    ins: List[np.ndarray],
    table: Optional[Tuple[int, ...]],
) -> Union[np.ndarray, int]:
    """Evaluate one lowered gate on packed word arrays.

    Returns a word array shaped like the inputs, or the int 0/1 for a
    constant-valued LUT (the caller materialises it).
    """
    if opcode == _OP_AND or opcode == _OP_NAND:
        out = ins[0] & ins[1]
        for w in ins[2:]:
            out &= w
        if opcode == _OP_NAND:
            out ^= FULL_WORD
        return out
    if opcode == _OP_OR or opcode == _OP_NOR:
        out = ins[0] | ins[1]
        for w in ins[2:]:
            out |= w
        if opcode == _OP_NOR:
            out ^= FULL_WORD
        return out
    if opcode == _OP_XOR or opcode == _OP_XNOR:
        out = ins[0] ^ ins[1]
        for w in ins[2:]:
            out ^= w
        if opcode == _OP_XNOR:
            out ^= FULL_WORD
        return out
    if opcode == _OP_NOT:
        return ins[0] ^ FULL_WORD
    if opcode == _OP_BUF:
        return ins[0]
    if opcode == _OP_MAJ:
        a, b, c = ins
        return (a & b) | (a & c) | (b & c)
    if opcode == _OP_MUX:
        s, a, b = ins
        return a ^ ((a ^ b) & s)
    if opcode == _OP_LUT:
        assert table is not None
        return lut_packed(table, ins)
    raise ValueError(f"cannot evaluate opcode {opcode}")  # pragma: no cover


class PackedSimulationResult(SimulationResult):
    """A :class:`SimulationResult` whose waveforms are stored packed.

    Rows unpack on demand: ``sample(step)`` unpacks exactly one row per
    output, so a frequency sweep over all steps costs one full unpack in
    total.  ``waveform(name)`` unpacks (and caches) the whole array for
    drop-in compatibility with the ``uint8`` result.
    """

    backend = "packed"

    def __init__(
        self,
        packed_waveforms: Dict[str, np.ndarray],
        settle_step: int,
        num_samples: int,
    ) -> None:
        super().__init__(packed_waveforms, settle_step, num_samples)
        self._unpacked: Dict[str, np.ndarray] = {}

    def packed_waveform(self, name: str) -> np.ndarray:
        """The raw packed waveform: shape ``(settle_step + 1, W)`` uint64."""
        return self._waveforms[name]

    def waveform(self, name: str) -> np.ndarray:
        cached = self._unpacked.get(name)
        if cached is None:
            cached = unpack_bits(self._waveforms[name], self.num_samples)
            self._unpacked[name] = cached
        return cached

    def sample(self, step: int) -> Dict[str, np.ndarray]:
        row = min(max(int(step), 0), self.settle_step)
        return {
            name: unpack_bits(w[row], self.num_samples)
            for name, w in self._waveforms.items()
        }

    def sample_bits(self, names, step: int) -> np.ndarray:
        row = min(max(int(step), 0), self.settle_step)
        return np.stack(
            [
                unpack_bits(self._waveforms[n][row], self.num_samples)
                for n in names
            ]
        )

    def sample_rows(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Per-sample capture without unpacking the full waveform.

        Only the distinct requested rows are unpacked (a jittered capture
        touches a handful of rows around the nominal step, not the whole
        waveform); bit-identical to the ``uint8`` base implementation,
        including the one-step-per-sample :class:`ValueError`.
        """
        rows = self._validated_rows(rows)
        unique, inverse = np.unique(rows, return_inverse=True)
        unpacked = unpack_bits(self._waveforms[name][unique], self.num_samples)
        return unpacked[inverse, np.arange(rows.shape[0])]


class CompiledCircuit:
    """A circuit lowered to an opcode program over packed words.

    Drop-in for :class:`WaveformSimulator` (same ``run`` signature and
    ``settle_step`` / ``delays`` / ``arrival`` attributes), plus the
    timing-free :meth:`evaluate_packed` fast path.

    Parameters
    ----------
    circuit:
        The combinational netlist.
    delay_model:
        Assigns integer delays; defaults to :class:`UnitDelay`.
    """

    def __init__(
        self,
        circuit: Circuit,
        delay_model: Optional[DelayModel] = None,
        _delays: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.circuit = circuit
        self.delay_model = delay_model if delay_model is not None else UnitDelay()
        delays = (
            tuple(self.delay_model.assign(circuit))
            if _delays is None
            else _delays
        )
        if len(delays) != circuit.num_gates:
            raise ValueError("delay model returned wrong number of delays")
        self.delays = list(delays)
        self.arrival = self._compute_arrivals()
        self.settle_step = max(self.arrival) if self.arrival else 0
        self._program = self._lower()

    # ------------------------------------------------------------- compile
    def _compute_arrivals(self) -> List[int]:
        """Arrival (settle) time of every net — identical to the wave sim."""
        arrival = [0] * self.circuit.num_nets
        for gate, d in zip(self.circuit.gates, self.delays):
            t_in = max((arrival[n] for n in gate.inputs), default=0)
            arrival[gate.output] = t_in + d
        return arrival

    def _lower(self) -> List[Tuple[int, int, Tuple[int, ...], Optional[Tuple[int, ...]], int, int]]:
        """Lower gates to ``(opcode, out, ins, table, delay, arrival)``.

        The program is levelized: instructions are ordered by the output
        net's arrival time (the topological levels the arrival
        computation induces), with the original creation order breaking
        ties so zero-delay chains stay producer-before-consumer.
        """
        program = []
        for gate, d in zip(self.circuit.gates, self.delays):
            opcode = _OPCODES.get(gate.op)
            if opcode is None:
                raise ValueError(f"cannot compile op {gate.op!r}")
            lo, hi = OPS[gate.op]
            if len(gate.inputs) < lo or (hi is not None and len(gate.inputs) > hi):
                raise ValueError(
                    f"{gate.op} gate has fanin {len(gate.inputs)}, "
                    f"expected [{lo}, {hi}]"
                )
            if opcode == _OP_LUT:
                if gate.table is None:
                    raise ValueError("LUT gate is missing its truth table")
                if len(gate.table) != 2 ** len(gate.inputs):
                    raise ValueError(
                        f"LUT table must have {2 ** len(gate.inputs)} "
                        f"entries for {len(gate.inputs)} inputs, "
                        f"got {len(gate.table)}"
                    )
            program.append(
                (
                    opcode,
                    gate.output,
                    gate.inputs,
                    gate.table,
                    d,
                    self.arrival[gate.output],
                )
            )
        program.sort(key=lambda instr: instr[5])  # stable levelization
        return program

    @property
    def num_levels(self) -> int:
        """Number of distinct arrival levels in the compiled program."""
        return len({instr[5] for instr in self._program})

    # ----------------------------------------------------------- execution
    def run(
        self,
        inputs: Mapping[str, ArrayLike],
        keep: Optional[Iterable[str]] = None,
    ) -> PackedSimulationResult:
        """Simulate one batch; packed counterpart of the wave-sim ``run``.

        Bit-for-bit equivalent to :meth:`WaveformSimulator.run` at every
        time step; returns a lazily-unpacking result view.
        """
        circuit = self.circuit
        in_arrays = prepare_batch_inputs(circuit, inputs)
        num_samples = (
            next(iter(in_arrays.values())).shape[0] if in_arrays else 1
        )
        width = packed_width(num_samples)
        tsteps = self.settle_step + 1

        keep_names = set(circuit.output_map) if keep is None else set(keep)
        unknown = keep_names - set(circuit.output_map)
        if unknown:
            raise ValueError(f"unknown outputs requested: {sorted(unknown)}")

        refcount = [circuit.fanout_of(n) for n in range(circuit.num_nets)]
        for name in keep_names:
            refcount[circuit.output_map[name]] += 1

        waves: Dict[int, np.ndarray] = {}
        for net, arr in in_arrays.items():
            row = pack_bits(arr)
            wave = np.empty((tsteps, width), dtype=np.uint64)
            wave[:] = row[np.newaxis, :]
            waves[net] = wave

        def release(net: int) -> None:
            refcount[net] -= 1
            if refcount[net] <= 0:
                waves.pop(net, None)

        for opcode, out_net, ins, table, d, arr_t in self._program:
            if opcode == _OP_CONST0:
                out = np.zeros((tsteps, width), dtype=np.uint64)
            elif opcode == _OP_CONST1:
                out = np.full((tsteps, width), FULL_WORD, dtype=np.uint64)
            else:
                # the output only changes on rows [d, arr_t]; its inputs
                # are all settled by row arr_t - d
                hi = arr_t - d
                ins_rows = [waves[n][: hi + 1] for n in ins]
                res = _eval_packed_op(opcode, ins_rows, table)
                if isinstance(res, int):
                    res = np.full(
                        (hi + 1, width),
                        FULL_WORD if res else 0,
                        dtype=np.uint64,
                    )
                out = np.zeros((tsteps, width), dtype=np.uint64)
                out[d : arr_t + 1] = res
                if arr_t + 1 < tsteps:
                    out[arr_t + 1 :] = out[arr_t]
            waves[out_net] = out
            for n in ins:
                release(n)

        out_waves = {
            name: waves[circuit.output_map[name]]
            for name in sorted(keep_names)
        }
        return PackedSimulationResult(out_waves, self.settle_step, num_samples)

    def evaluate_packed(
        self, inputs: Mapping[str, ArrayLike]
    ) -> Dict[str, np.ndarray]:
        """Timing-free functional evaluation (final settled values only).

        The packed counterpart of :func:`repro.netlist.sim.evaluate`:
        one packed row per net instead of a full waveform.  Returns
        unpacked ``uint8`` arrays keyed by output name.
        """
        circuit = self.circuit
        in_arrays = prepare_batch_inputs(circuit, inputs)
        num_samples = (
            next(iter(in_arrays.values())).shape[0] if in_arrays else 1
        )
        width = packed_width(num_samples)
        values: Dict[int, np.ndarray] = {
            net: pack_bits(arr) for net, arr in in_arrays.items()
        }
        for opcode, out_net, ins, table, _d, _arr in self._program:
            if opcode == _OP_CONST0:
                values[out_net] = np.zeros(width, dtype=np.uint64)
            elif opcode == _OP_CONST1:
                values[out_net] = np.full(width, FULL_WORD, dtype=np.uint64)
            else:
                res = _eval_packed_op(
                    opcode, [values[n] for n in ins], table
                )
                if isinstance(res, int):
                    res = np.full(
                        width, FULL_WORD if res else 0, dtype=np.uint64
                    )
                values[out_net] = res
        return {
            name: unpack_bits(values[net], num_samples)
            for name, net in circuit.output_map.items()
        }


# ------------------------------------------------------------- compile cache

#: maximum number of compiled engines (and of shared circuits) kept alive
COMPILE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def shared_circuit(build: Callable[..., Circuit], *args) -> Circuit:
    """``build(*args)``, built once per process and frozen.

    The one netlist table every gate-level consumer reads.  Delays never
    enter its key: :func:`compile_circuit` keys the exact assignment.  A
    transform (stuck-at faults) must derive a new circuit.
    """
    return build(*args).freeze()

_cache: "OrderedDict[Tuple[str, Tuple[int, ...]], CompiledCircuit]" = (
    OrderedDict()
)
_cache_hits = 0
_cache_misses = 0


def circuit_fingerprint(circuit: Circuit) -> str:
    """Structural fingerprint of a circuit (gates, ports, tables).

    Memoised on the circuit object and invalidated when the gate/net/port
    counts change (the only mutations the builder API allows are
    appends, which change those counts).
    """
    stamp = (
        circuit.num_gates,
        circuit.num_nets,
        len(circuit.output_map),
        len(circuit.input_nets),
    )
    cached = getattr(circuit, "_fingerprint_cache", None)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    h = hashlib.blake2b(digest_size=16)
    h.update(
        repr(
            (
                circuit.input_names,
                circuit.input_nets,
                sorted(circuit.output_map.items()),
            )
        ).encode()
    )
    for gate in circuit.gates:
        h.update(
            repr((gate.op, gate.inputs, gate.output, gate.table)).encode()
        )
    digest = h.hexdigest()
    circuit._fingerprint_cache = (stamp, digest)
    return digest


def compile_circuit(
    circuit: Circuit, delay_model: Optional[DelayModel] = None
) -> CompiledCircuit:
    """Compile *circuit* under *delay_model*, reusing the LRU cache.

    The key is ``(structural fingerprint, exact delay assignment)``: two
    calls with equivalent circuits and delay models (all models assign
    deterministically from their seed) share one compiled engine, which
    is what makes repeated sweeps over the same operator cheap.
    """
    global _cache_hits, _cache_misses
    model = delay_model if delay_model is not None else UnitDelay()
    delays = tuple(model.assign(circuit))
    key = (circuit_fingerprint(circuit), delays)
    cached = _cache.get(key)
    if cached is not None:
        _cache.move_to_end(key)
        _cache_hits += 1
        metrics().count("compile_cache.hits")
        return cached
    _cache_misses += 1
    metrics().count("compile_cache.misses")
    compiled = CompiledCircuit(circuit, model, _delays=delays)
    _cache[key] = compiled
    while len(_cache) > COMPILE_CACHE_SIZE:
        _cache.popitem(last=False)
        metrics().count("compile_cache.evictions")
    return compiled


def compile_cache_info() -> Dict[str, int]:
    """Hit/miss counters and occupancy of the compile cache."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": len(_cache),
        "max_size": COMPILE_CACHE_SIZE,
    }


def clear_compile_cache() -> None:
    """Drop every cached engine and shared circuit; reset the counters."""
    global _cache_hits, _cache_misses
    shared_circuit.cache_clear()
    _cache.clear()
    _cache_hits = 0
    _cache_misses = 0


# --------------------------------------------------------------- entry points

Simulator = Union[CompiledCircuit, WaveformSimulator]


def make_simulator(
    circuit: Circuit,
    delay_model: Optional[DelayModel] = None,
    backend: Optional[str] = None,
) -> Simulator:
    """Build a simulator for *circuit* by backend name.

    ``"wave"`` returns the interpreting :class:`WaveformSimulator`;
    ``"packed"`` (the default for netlists, :func:`resolve_backend`)
    returns a cached :class:`CompiledCircuit`, falling back to the
    waveform simulator automatically should compilation fail.
    ``"vector"`` — the digit-level behavioral engine in :mod:`repro.vec`
    — has no gate-level netlist semantics, so netlist simulations run on
    the packed engine instead.
    """
    if resolve_backend(backend, "netlist") == "wave":
        return WaveformSimulator(circuit, delay_model)
    try:
        return compile_circuit(circuit, delay_model)
    except Exception:
        return WaveformSimulator(circuit, delay_model)


def critical_delay(simulator: Simulator) -> int:
    """Latest output arrival: ``static_timing(...).critical_delay``
    without a second pass (both engines share its recurrence)."""
    arrival = simulator.arrival
    return max(
        (arrival[n] for n in simulator.circuit.output_map.values()),
        default=0,
    )


def evaluate_packed(
    circuit: Circuit, inputs: Mapping[str, ArrayLike]
) -> Dict[str, np.ndarray]:
    """Timing-free packed evaluation of *circuit* (compile-cached).

    Module-level convenience mirroring :func:`repro.netlist.sim.evaluate`.
    """
    return compile_circuit(circuit).evaluate_packed(inputs)
