"""Conventional (two's-complement) arithmetic operators at gate level.

These are the "traditional arithmetic" baselines of the paper: LSB-first
operators whose carry chains run from the least significant bit towards the
most significant bit, so a timing violation corrupts the *most* significant
bits first — the failure mode online arithmetic is designed to avoid.

The netlist builders come in two flavours:

* *composable* functions (``ripple_carry_adder``, ``array_multiplier``, ...)
  that add logic to an existing :class:`repro.netlist.Circuit` and exchange
  bit-vector net lists (LSB first), used to assemble whole datapaths; and
* ``build_*`` wrappers that produce a standalone circuit with named ports,
  used by the unit tests and the operator-level experiments.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "ripple_carry_adder": "repro.arith.ripple_carry",
    "build_ripple_carry_adder": "repro.arith.ripple_carry",
    "twos_complement_negate": "repro.arith.ripple_carry",
    "kogge_stone_adder": "repro.arith.prefix_adder",
    "build_kogge_stone_adder": "repro.arith.prefix_adder",
    "reduce_columns": "repro.arith.compress",
    "columns_from_rows": "repro.arith.compress",
    "array_multiplier": "repro.arith.array_multiplier",
    "build_array_multiplier": "repro.arith.array_multiplier",
    "adder_tree": "repro.arith.adder_tree",
    "build_adder_tree": "repro.arith.adder_tree",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
