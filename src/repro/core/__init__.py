"""The paper's contribution: digit-parallel online arithmetic operators,
their overclocking-error model, and datapath synthesis on top of them.

Layout
------
``ops``
    Logic-operation providers: the same borrow-save kernels run either on
    Python ints (bit-exact reference) or on a netlist builder (gate-level
    hardware), so reference and hardware agree *by construction*.
``kernels``
    Generic borrow-save building blocks: the carry-free online adder of
    Fig. 2, the signed-digit vector multiplier (SDVM), and the selection /
    residual-recoding function of Eq. (2).
``online_adder`` / ``online_multiplier``
    Value-level APIs and standalone netlist builders for the paper's two
    operators (Figs. 2 and 3, Algorithm 1).
``conversion``
    On-the-fly conversion between the redundant signed-digit form and
    two's complement.
``model``
    Section 3: probability of timing violations (Algorithm 2), chain-length
    distributions, error magnitude and expectation (Eqs. 5-11).
``synthesis``
    Datapath synthesis front-end: express a dataflow graph once, emit it in
    either arithmetic, and explore the latency-accuracy trade-off.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "IntOps": "repro.core.ops",
    "NetOps": "repro.core.ops",
    "online_add": "repro.core.online_adder",
    "online_sub": "repro.core.online_adder",
    "build_online_adder": "repro.core.online_adder",
    "ONLINE_ADDER_DELAY_FA": "repro.core.online_adder",
    "OnlineMultiplier": "repro.core.online_multiplier",
    "online_multiply": "repro.core.online_multiplier",
    "build_online_multiplier": "repro.core.online_multiplier",
    "ONLINE_DELTA": "repro.core.online_multiplier",
    "select_digit": "repro.core.selection",
    "selection_tables": "repro.core.selection",
    "sd_to_twos_complement": "repro.core.conversion",
    "on_the_fly_convert": "repro.core.conversion",
    "OnlineSerialAdder": "repro.core.serial",
    "OnlineSerialMultiplier": "repro.core.serial",
    "serial_multiply": "repro.core.serial",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
