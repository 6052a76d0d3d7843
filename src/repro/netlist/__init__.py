"""Gate-level netlist substrate: circuits, delays, timing simulation, STA.

This package is the reproduction's stand-in for the paper's FPGA flow
(Xilinx Virtex-6 + post place-and-route timing simulation).  Circuits are
feed-forward DAGs of boolean gates; every gate has an integer delay on a
common time grid; the simulator computes the *full waveform* of every net
from the moment inputs are applied (with all internal state reset to zero,
matching the paper's assumption) until the circuit settles.

Overclocking is then literal: sampling the output nets at time step
``t = floor(T_S / quantum)`` yields exactly the intermediate values a
capture register would latch at clock period ``T_S`` — one simulation gives
an entire frequency sweep.
"""

from repro.netlist.gates import Gate, Circuit, OPS
from repro.netlist.delay import (
    DelayModel,
    UnitDelay,
    PerOpDelay,
    FpgaDelay,
    CarryChainDelay,
)
from repro.netlist.sim import WaveformSimulator, SimulationResult, run_chunked
from repro.netlist.compiled import (
    BACKENDS,
    DEFAULT_ENGINES,
    CompiledCircuit,
    PackedSimulationResult,
    circuit_fingerprint,
    clear_compile_cache,
    compile_cache_info,
    compile_circuit,
    evaluate_packed,
    make_simulator,
    resolve_backend,
)
from repro.netlist.packing import pack_bits, unpack_bits, packed_width
from repro.netlist.sta import static_timing, critical_path, ArrivalTimes
from repro.netlist.area import estimate_area, AreaReport
from repro.netlist.verilog import to_verilog
from repro.netlist.analysis import (
    output_arrival_profile,
    slack_histogram,
    violated_outputs,
    depth_histogram,
    fanout_statistics,
    arrival_order,
)

__all__ = [
    "Gate",
    "Circuit",
    "OPS",
    "DelayModel",
    "UnitDelay",
    "PerOpDelay",
    "FpgaDelay",
    "CarryChainDelay",
    "WaveformSimulator",
    "SimulationResult",
    "run_chunked",
    "BACKENDS",
    "DEFAULT_ENGINES",
    "CompiledCircuit",
    "PackedSimulationResult",
    "circuit_fingerprint",
    "clear_compile_cache",
    "compile_cache_info",
    "compile_circuit",
    "evaluate_packed",
    "make_simulator",
    "resolve_backend",
    "pack_bits",
    "unpack_bits",
    "packed_width",
    "static_timing",
    "critical_path",
    "ArrivalTimes",
    "estimate_area",
    "AreaReport",
    "to_verilog",
    "output_arrival_profile",
    "slack_histogram",
    "violated_outputs",
    "depth_histogram",
    "fanout_statistics",
    "arrival_order",
]
