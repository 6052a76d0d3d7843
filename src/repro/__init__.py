"""repro — Datapath Synthesis for Overclocking with Online Arithmetic.

A complete, self-contained reproduction of the DAC 2014 paper
*"Datapath Synthesis for Overclocking: Online Arithmetic for
Latency-Accuracy Trade-offs"*: digit-parallel online arithmetic operators
that degrade gracefully when clocked beyond timing closure, the
probabilistic model of their overclocking error, a gate-level timing
simulator standing in for the paper's FPGA flow, and the Gaussian
image-filter case study.

Quick start
-----------
>>> from repro import Datapath
>>> dp = Datapath(ndigits=8)
>>> x, y = dp.input("x"), dp.input("y")
>>> dp.output("prod", x * y)
>>> online = dp.synthesize("online")        # overclocking-friendly design
>>> trad = dp.synthesize("traditional")     # conventional baseline

See ``examples/quickstart.py`` and DESIGN.md for the full tour.
"""

from repro import _lazy

__version__ = "1.0.0"

#: public name -> defining module, imported on first access
_EXPORTS = {
    "online_add": "repro.core.online_adder",
    "build_online_adder": "repro.core.online_adder",
    "OnlineMultiplier": "repro.core.online_multiplier",
    "online_multiply": "repro.core.online_multiplier",
    "build_online_multiplier": "repro.core.online_multiplier",
    "ONLINE_DELTA": "repro.core.online_multiplier",
    "OverclockingErrorModel": "repro.core.model.expectation",
    "Datapath": "repro.core.synthesis",
    "SynthesizedDatapath": "repro.core.synthesis",
    "SDNumber": "repro.numrep.signed_digit",
    "Circuit": "repro.netlist.gates",
    "WaveformSimulator": "repro.netlist.sim",
    "UnitDelay": "repro.netlist.delay",
    "FpgaDelay": "repro.netlist.delay",
    "static_timing": "repro.netlist.sta",
    "estimate_area": "repro.netlist.area",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
