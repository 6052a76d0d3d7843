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

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "Gate": "repro.netlist.gates",
    "Circuit": "repro.netlist.gates",
    "OPS": "repro.netlist.gates",
    "DelayModel": "repro.netlist.delay",
    "UnitDelay": "repro.netlist.delay",
    "PerOpDelay": "repro.netlist.delay",
    "FpgaDelay": "repro.netlist.delay",
    "CarryChainDelay": "repro.netlist.delay",
    "WaveformSimulator": "repro.netlist.sim",
    "SimulationResult": "repro.netlist.sim",
    "run_chunked": "repro.netlist.sim",
    "BACKENDS": "repro.netlist.engines",
    "DEFAULT_ENGINES": "repro.netlist.engines",
    "CompiledCircuit": "repro.netlist.compiled",
    "PackedSimulationResult": "repro.netlist.compiled",
    "circuit_fingerprint": "repro.netlist.compiled",
    "clear_compile_cache": "repro.netlist.compiled",
    "compile_cache_info": "repro.netlist.compiled",
    "compile_circuit": "repro.netlist.compiled",
    "evaluate_packed": "repro.netlist.compiled",
    "make_simulator": "repro.netlist.compiled",
    "shared_circuit": "repro.netlist.compiled",
    "resolve_backend": "repro.netlist.engines",
    "pack_bits": "repro.netlist.packing",
    "unpack_bits": "repro.netlist.packing",
    "packed_width": "repro.netlist.packing",
    "static_timing": "repro.netlist.sta",
    "critical_path": "repro.netlist.sta",
    "ArrivalTimes": "repro.netlist.sta",
    "estimate_area": "repro.netlist.area",
    "AreaReport": "repro.netlist.area",
    "to_verilog": "repro.netlist.verilog",
    "output_arrival_profile": "repro.netlist.analysis",
    "slack_histogram": "repro.netlist.analysis",
    "violated_outputs": "repro.netlist.analysis",
    "depth_histogram": "repro.netlist.analysis",
    "fanout_statistics": "repro.netlist.analysis",
    "arrival_order": "repro.netlist.analysis",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
