"""Gate-delay models on an integer time grid.

All simulation happens on a quantized time axis.  A delay model assigns each
gate an integer delay (>= 1 for any real gate; constants and buffers may be
free).  Three models are provided:

* :class:`UnitDelay` — every LUT-level gate costs exactly one quantum.  This
  is the paper's analytical timing model (each full-adder level costs one
  unit; a multiplier stage then costs a small constant number of units).
* :class:`PerOpDelay` — explicit per-op delays, used in ablations.
* :class:`FpgaDelay` — LUT delay plus per-gate routing jitter drawn from a
  seeded RNG.  This is the reproduction's stand-in for post place-and-route
  timing on the paper's Virtex-6 part: delays become non-uniform per
  instance, which is what separates the bottom row of the paper's Fig. 4
  ("FPGA results") from the top row ("timing assumptions").
"""

from __future__ import annotations

import random
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.netlist.gates import Circuit, Gate

#: ops that take no time (wiring / constants)
FREE_OPS = frozenset({"CONST0", "CONST1", "BUF"})


def delay_signature(model: "DelayModel") -> str:
    """Stable textual identity of a delay model instance.

    Class name plus sorted constructor state — every provided model keeps
    its parameters as plain instance attributes, so two instances with
    equal signatures assign identical delays to any circuit.  Attribute
    values that are themselves :class:`DelayModel` instances (e.g. the
    base model a fault-injecting wrapper perturbs, see
    :class:`repro.faults.DriftedDelayModel`) render as their own
    signature, so composed models stay stable too.  Used as worker-side
    memo keys and as cache-key material by the experiment runners.
    """
    params = ", ".join(
        f"{k}={delay_signature(v) if isinstance(v, DelayModel) else repr(v)}"
        for k, v in sorted(vars(model).items())
    )
    return f"{type(model).__name__}({params})"


def delay_key_components(
    model: "DelayModel", circuits: Union[Circuit, Mapping[str, Circuit]]
) -> Dict[str, Any]:
    """Cache-key components naming the timing *model* gives *circuits*.

    ``delay`` is the model's :func:`delay_signature` and ``delays`` the
    exact per-gate delays it assigns: one list for a single circuit, one
    per name for a mapping of circuits.  The signature alone is no
    identity — ``repr`` elides large numpy state — so a gate-level cache
    key carries both, and two models whose signatures collide can never
    share an entry.
    """
    if isinstance(circuits, Circuit):
        delays: Any = list(model.assign(circuits))
    else:
        delays = {name: list(model.assign(c)) for name, c in circuits.items()}
    return {"delay": delay_signature(model), "delays": delays}


class DelayModel:
    """Interface: assign integer delays to every gate of a circuit."""

    #: nominal number of quanta that make up "one full-adder delay"; used by
    #: callers to convert between abstract stage delays and the grid
    quanta_per_unit: int = 1

    def assign(self, circuit: Circuit) -> Sequence[int]:
        """Return ``delays[i]`` = integer delay of ``circuit.gates[i]``."""
        raise NotImplementedError


class UnitDelay(DelayModel):
    """Every non-trivial gate costs exactly one quantum.

    ``NOT`` gates are treated as free by default because technology mapping
    absorbs inverters into the consuming LUT.
    """

    quanta_per_unit = 1

    def __init__(self, free_not: bool = True) -> None:
        self.free_not = free_not

    def assign(self, circuit: Circuit) -> Sequence[int]:
        delays = []
        for gate in circuit.gates:
            if gate.op in FREE_OPS or (self.free_not and gate.op == "NOT"):
                delays.append(0)
            else:
                delays.append(1)
        return delays


class PerOpDelay(DelayModel):
    """Explicit delays per op name, defaulting to *default* quanta."""

    def __init__(
        self,
        table: Optional[Dict[str, int]] = None,
        default: int = 1,
        quanta_per_unit: int = 1,
    ) -> None:
        self.table = dict(table or {})
        self.default = default
        self.quanta_per_unit = quanta_per_unit

    def assign(self, circuit: Circuit) -> Sequence[int]:
        delays = []
        for gate in circuit.gates:
            if gate.op in FREE_OPS:
                delays.append(0)
            else:
                delays.append(self.table.get(gate.op, self.default))
        return delays


class CarryChainDelay(DelayModel):
    """FPGA delay model with dedicated carry-chain acceleration.

    On real FPGA fabric, the majority (carry) function of a full adder
    rides the dedicated MUXCY/CARRY4 chain: its per-bit delay is an order
    of magnitude below a LUT-plus-routing hop.  This is why the paper's
    CoreGen adders reach 168 MHz while LUT-only redundant logic does not
    enjoy the same boost.

    Heuristic mapping: a ``MAJ`` gate whose output feeds another ``MAJ``
    gate (a ripple pattern — the synthesis tool would place it on the
    chain) costs ``carry_cost`` quanta; every other gate behaves like
    :class:`FpgaDelay`.  Use this model to study how much of the online
    advantage survives on carry-chain-rich fabric
    (``bench_ablation_carry_chains``).
    """

    def __init__(
        self,
        base: int = 3,
        jitter_min: int = 0,
        jitter_max: int = 2,
        carry_cost: int = 1,
        seed: int = 2014,
        free_not: bool = True,
    ) -> None:
        if base < 1 or carry_cost < 0:
            raise ValueError("base must be >= 1 and carry_cost >= 0")
        if not 0 <= jitter_min <= jitter_max:
            raise ValueError("need 0 <= jitter_min <= jitter_max")
        self.base = base
        self.jitter_min = jitter_min
        self.jitter_max = jitter_max
        self.carry_cost = carry_cost
        self.seed = seed
        self.free_not = free_not
        self.quanta_per_unit = base + (jitter_min + jitter_max) // 2

    def assign(self, circuit: Circuit) -> Sequence[int]:
        rng = random.Random(
            f"cc:{self.seed}:{circuit.name}:{circuit.num_gates}"
        )
        maj_outputs = {
            g.output for g in circuit.gates if g.op == "MAJ"
        }
        on_chain = set()
        for gate in circuit.gates:
            if gate.op == "MAJ" and any(
                n in maj_outputs for n in gate.inputs
            ):
                on_chain.add(gate.output)
                # the driver it rides on is also on the chain
                for n in gate.inputs:
                    if n in maj_outputs:
                        on_chain.add(n)
        delays = []
        for gate in circuit.gates:
            if gate.op in FREE_OPS or (self.free_not and gate.op == "NOT"):
                delays.append(0)
            elif gate.op == "MAJ" and gate.output in on_chain:
                delays.append(self.carry_cost)
            else:
                jitter = rng.randint(self.jitter_min, self.jitter_max)
                delays.append(self.base + jitter)
        return delays


class FpgaDelay(DelayModel):
    """LUT delay + seeded per-gate routing jitter (post-PAR stand-in).

    Each LUT-level gate costs ``base`` quanta of logic delay plus a routing
    delay drawn uniformly from ``[jitter_min, jitter_max]`` quanta.  The draw
    is seeded and keyed to the gate index, so a given circuit always gets the
    same "placement".  With the defaults, one abstract full-adder delay
    corresponds to ``quanta_per_unit = base + (jitter_min + jitter_max) / 2``
    quanta on average.

    ``NOT`` gates are free (absorbed by mapping); buffers and constants are
    free as well.
    """

    def __init__(
        self,
        base: int = 3,
        jitter_min: int = 0,
        jitter_max: int = 2,
        seed: int = 2014,
        free_not: bool = True,
    ) -> None:
        if base < 1:
            raise ValueError("base delay must be >= 1")
        if not 0 <= jitter_min <= jitter_max:
            raise ValueError("need 0 <= jitter_min <= jitter_max")
        self.base = base
        self.jitter_min = jitter_min
        self.jitter_max = jitter_max
        self.seed = seed
        self.free_not = free_not
        self.quanta_per_unit = base + (jitter_min + jitter_max) // 2

    def assign(self, circuit: Circuit) -> Sequence[int]:
        rng = random.Random(f"{self.seed}:{circuit.name}:{circuit.num_gates}")
        delays = []
        for gate in circuit.gates:
            if gate.op in FREE_OPS or (self.free_not and gate.op == "NOT"):
                delays.append(0)
            else:
                jitter = rng.randint(self.jitter_min, self.jitter_max)
                delays.append(self.base + jitter)
        return delays
