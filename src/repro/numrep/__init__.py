"""Number representations used throughout the reproduction.

Two families of representation appear in the paper:

* conventional two's-complement fixed point (:mod:`repro.numrep.fixed_point`),
  used by the "traditional arithmetic" baseline datapaths, and
* the radix-2 redundant signed-digit representation with digit set
  ``{-1, 0, 1}`` (:mod:`repro.numrep.signed_digit`), used by online
  arithmetic.  Each signed digit is encoded *borrow-save* as a pair of bits
  ``(pos, neg)`` with digit value ``pos - neg``.

All operand values in the paper are normalised fractions in ``(-1, 1)``
(Eq. (1) of the paper): an ``N``-digit operand is
``x = sum_{i=1..N} x_i * 2**-i``.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "FixedPointFormat": "repro.numrep.fixed_point",
    "float_to_fixed": "repro.numrep.fixed_point",
    "fixed_to_float": "repro.numrep.fixed_point",
    "int_to_bits": "repro.numrep.fixed_point",
    "bits_to_int": "repro.numrep.fixed_point",
    "twos_complement_encode": "repro.numrep.fixed_point",
    "twos_complement_decode": "repro.numrep.fixed_point",
    "ceil_scaled": "repro.numrep.rounding",
    "SDNumber": "repro.numrep.signed_digit",
    "sd_value": "repro.numrep.signed_digit",
    "sd_to_fraction": "repro.numrep.signed_digit",
    "sd_from_twos_complement": "repro.numrep.signed_digit",
    "sd_random": "repro.numrep.signed_digit",
    "sd_canonical": "repro.numrep.signed_digit",
    "borrow_save_encode": "repro.numrep.signed_digit",
    "borrow_save_decode": "repro.numrep.signed_digit",
    "VALID_DIGITS": "repro.numrep.signed_digit",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
