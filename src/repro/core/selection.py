"""The online multiplier's digit-selection function (Eq. (2) of the paper).

At every stage the residual ``W = P + H`` is held in redundant
(borrow-save) form and the product digit is chosen from a low-precision
*estimate* ``V`` of ``W``:

    z = 1     if  V >= 1/2
    z = 0     if  -1/2 <= V < 1/2
    z = -1    if  V < -1/2

Estimate construction
---------------------
``H`` never has digits above position 3 (it is scaled by ``2**-delta``), so
the most significant region of ``W`` is governed by ``P`` alone plus the
carry/borrow pair that the position-3 adder cell sends across the boundary.
The selection block therefore reads ``P`` *before* the W-adder:

    V = P_0 + P_1 / 2 + P_2 / 4 + (g_3 - p_3) / 4

where ``g_3``/``p_3`` are the layer-1 carry and layer-2 borrow crossing the
position 2|3 boundary (single-gate functions of the tail).  This keeps the
stage-to-stage recurrence path free of the W-adder: one recode block per
stage, exactly the cheap update the paper's Fig. 3(b) relies on.

An exhaustive search over the reachable residual states (see
``tests/core/test_selection.py`` and the DESIGN notes) shows
``|V| <= 7/4``; after subtracting ``z`` the remainder ``R = V - z``
satisfies ``|R| <= 3/4`` and recodes exactly into two signed digits ``r1``
(weight 1/2) and ``r2`` (weight 1/4), which become the two most significant
digits of ``P' = 2 * (W - z)`` — no carry propagation anywhere.

The first ``delta`` stages carry no selection logic (the paper removes it);
they still recode the residual top with ``z`` forced to zero
(``emit_z=False``), where the reachable range is ``|V| <= 3/4``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

#: selection input bit order: borrow-save pairs of the residual digits
#: P_0, P_1, P_2 followed by the boundary carry ``g_3`` and borrow ``p_3``
INPUT_BIT_NAMES = (
    "p0_pos", "p0_neg",
    "p1_pos", "p1_neg",
    "p2_pos", "p2_neg",
    "g3", "p3",
)

#: number of selection input bits
NUM_INPUT_BITS = len(INPUT_BIT_NAMES)  # 8


def select_digit(w) -> int:
    """Value-level selection (Eq. (2)): round the residual to a digit."""
    w = Fraction(w)
    if w >= Fraction(1, 2):
        return 1
    if w < Fraction(-1, 2):
        return -1
    return 0


def estimate_quarters(bits: Tuple[int, ...]) -> int:
    """Estimate value in units of 1/4 from the selection input bits.

    ``bits`` follow :data:`INPUT_BIT_NAMES`:
    ``V_q = 4*P_0 + 2*P_1 + P_2 + g_3 - p_3``.
    """
    p0 = bits[0] - bits[1]
    p1 = bits[2] - bits[3]
    p2 = bits[4] - bits[5]
    return 4 * p0 + 2 * p1 + p2 + bits[6] - bits[7]


def select_from_estimate(
    v_quarters: int, emit_z: bool = True
) -> Tuple[int, int, int]:
    """Return ``(z, r1, r2)`` for an estimate of ``v_quarters`` quarter-units.

    ``r1``/``r2`` are the residual digits (weights 1/2 and 1/4) such that
    ``V - z = r1/2 + r2/4`` whenever the estimate is in range; out-of-range
    estimates saturate (the reference implementation asserts they are
    unreachable — see :func:`residual_in_range`).
    """
    if emit_z:
        if v_quarters >= 2:  # V >= 1/2
            z = 1
        elif v_quarters <= -3:  # V < -1/2, i.e. V <= -3/4
            z = -1
        else:
            z = 0
    else:
        z = 0
    r_quarters = v_quarters - 4 * z
    if r_quarters > 3:
        r_quarters = 3
    elif r_quarters < -3:
        r_quarters = -3
    sign = 1 if r_quarters >= 0 else -1
    mag = abs(r_quarters)
    r1 = sign * (mag >> 1)
    r2 = sign * (mag & 1)
    return z, r1, r2


def residual_in_range(v_quarters: int, emit_z: bool = True) -> bool:
    """True when the estimate can be consumed without saturation.

    With selection enabled the reachable range is ``|V| <= 7/4``; in the
    selection-free early stages it is ``|V| <= 3/4``.
    """
    if emit_z:
        return -7 <= v_quarters <= 7
    return -3 <= v_quarters <= 3


def selection_tables(emit_z: bool = True) -> Mapping[str, Tuple[int, ...]]:
    """Truth tables for the selection/recode block.

    Returns 256-entry tables keyed ``zp, zn, r1p, r1n, r2p, r2n``
    (``zp/zn`` omitted when ``emit_z`` is False), indexed by
    ``sum(bit_i << i)`` with bit order :data:`INPUT_BIT_NAMES`.  Hardware
    realises each output with a LUT6 tree
    (:func:`repro.core.kernels.lut_tree`); in the common case the boundary
    bits are constant-folded and each output collapses to a single LUT6.

    The tables are built once per process and shared: every call with
    the same *emit_z* returns the same read-only mapping of tuples.
    """
    return _selection_tables(bool(emit_z))


@functools.lru_cache(maxsize=None)
def _selection_tables(emit_z: bool) -> Mapping[str, Tuple[int, ...]]:
    size = 2**NUM_INPUT_BITS
    keys = ["r1p", "r1n", "r2p", "r2n"] + (["zp", "zn"] if emit_z else [])
    tables: Dict[str, List[int]] = {k: [0] * size for k in keys}
    for idx in range(size):
        bits = tuple((idx >> k) & 1 for k in range(NUM_INPUT_BITS))
        v = estimate_quarters(bits)
        z, r1, r2 = select_from_estimate(v, emit_z)
        if emit_z:
            tables["zp"][idx] = 1 if z == 1 else 0
            tables["zn"][idx] = 1 if z == -1 else 0
        tables["r1p"][idx] = 1 if r1 == 1 else 0
        tables["r1n"][idx] = 1 if r1 == -1 else 0
        tables["r2p"][idx] = 1 if r2 == 1 else 0
        tables["r2n"][idx] = 1 if r2 == -1 else 0
    return MappingProxyType({k: tuple(v) for k, v in tables.items()})
