"""Generic borrow-save kernels shared by the reference and the netlist.

A borrow-save vector is a ``dict`` mapping digit *position* to a
``(pos_bit, neg_bit)`` pair; the digit at position ``i`` has value
``pos - neg`` and weight ``2**-i``.  The bits live in whatever domain the
:class:`repro.core.ops.LogicOps` provider supplies (Python ints for the
reference, net handles for hardware), so every kernel below describes both
the mathematical operation *and* the exact gate structure.

Kernels
-------
``bs_add``
    The paper's digit-parallel online adder (Fig. 2): two levels of PPM
    cells (full adders with one negative-weight input/output realised by
    inversion), carry-free for any word length.  Derivation: with
    ``PPM(a, b; c) = a + b - c = 2*MAJ(a, b, ~c) - XOR(a, b, c)``,

        layer 1 (position i):  x+ + y+ - x-  = 2*g_i - h_i
        layer 2 (position i):  g_{i+1} - h_i - y-_i = q_i - 2*p_i

    giving output digit ``z_i = q_i - p_{i+1}`` — exactly two full-adder
    levels of delay regardless of precision.
``sdvm``
    Signed-digit vector multiplier: one operand digit in ``{-1, 0, 1}``
    times a borrow-save vector (select ``X``, ``-X`` or 0 per digit).
``om_stage``
    One fused online-multiplier stage: the tail of ``W = P + H`` through
    adder cells, the head through the Eq. (2) selection/recode LUTs (see
    :mod:`repro.core.selection`), producing ``z`` and ``P' = 2*(W - z)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from repro.core.ops import LogicOps
from repro.core.selection import (
    estimate_quarters,
    residual_in_range,
    selection_tables,
)

#: borrow-save vector: position -> (pos_bit, neg_bit)
BSVec = Dict[int, Tuple[object, object]]


class ResidualOverflowError(AssertionError):
    """The selection estimate left the provable residual range.

    This would mean the digit-selection invariant ``|V - z| <= 1/2`` is
    violated — the online multiplier recurrence would no longer converge.
    The reference implementation raises this instead of silently saturating
    the hardware tables.
    """


def bs_zero() -> BSVec:
    """The empty (zero) vector."""
    return {}


def bs_value(vec: BSVec) -> Fraction:
    """Exact value of an *int-domain* vector (reference only)."""
    total = Fraction(0)
    for pos, (p, n) in vec.items():
        total += Fraction(int(p) - int(n)) * Fraction(2) ** (-pos)
    return total


def bs_negate(vec: BSVec) -> BSVec:
    """Negate by swapping positive and negative bits (free in hardware)."""
    return {pos: (n, p) for pos, (p, n) in vec.items()}


def bs_shift(vec: BSVec, k: int) -> BSVec:
    """Multiply by ``2**k`` — pure re-wiring: position ``i`` -> ``i - k``."""
    return {pos - k: bits for pos, bits in vec.items()}


def sdvm(ops: LogicOps, digit: Tuple[object, object], vec: BSVec) -> BSVec:
    """Signed-digit vector multiplication: ``digit * vec``.

    With the canonical digit encoding (``(1,1)`` never asserted for the
    multiplier's operand digits) the per-position logic is two AND + one OR
    per output bit:

        out+ = (d+ & x+) | (d- & x-)
        out- = (d+ & x-) | (d- & x+)
    """
    dp, dn = digit
    out: BSVec = {}
    for pos, (xp, xn) in vec.items():
        op = ops.or2(ops.and2(dp, xp), ops.and2(dn, xn))
        on = ops.or2(ops.and2(dp, xn), ops.and2(dn, xp))
        out[pos] = (op, on)
    return out


def bs_add(ops: LogicOps, x: BSVec, y: BSVec) -> BSVec:
    """Carry-free borrow-save addition (the Fig. 2 online adder).

    The output occupies positions ``[min - 1, max]`` of the union of the
    input ranges; the extra most-significant position absorbs the (bounded)
    growth of the sum.  Delay: two full-adder levels for any width.
    """
    if not x and not y:
        return {}
    positions = set(x) | set(y)
    lo, hi = min(positions), max(positions)
    zero = ops.const(0)

    def bit(vec: BSVec, pos: int, which: int):
        pair = vec.get(pos)
        return zero if pair is None else pair[which]

    # layer 1: g_i (carry, weight 2^-(i-1)), h_i (negative, weight 2^-i)
    g: Dict[int, object] = {}
    h: Dict[int, object] = {}
    for i in range(lo, hi + 1):
        xp, xn = bit(x, i, 0), bit(x, i, 1)
        yp = bit(y, i, 0)
        g[i] = ops.maj3(xp, yp, ops.not_(xn))
        h[i] = ops.xor3(xp, yp, xn)

    # layer 2: z+_i = XOR(h_i, y-_i, g_{i+1}); z-_i = MAJ(h_{i+1}, y-_{i+1}, ~g_{i+2})
    out: BSVec = {}
    one = ops.const(1)
    for i in range(lo - 1, hi + 1):
        h_i = h.get(i, zero)
        yn_i = bit(y, i, 1)
        g_i1 = g.get(i + 1, zero)
        zp = ops.xor3(h_i, yn_i, g_i1)
        h_i1 = h.get(i + 1, zero)
        yn_i1 = bit(y, i + 1, 1)
        g_i2 = g.get(i + 2)
        ng_i2 = one if g_i2 is None else ops.not_(g_i2)
        zn = ops.maj3(h_i1, yn_i1, ng_i2)
        out[i] = (zp, zn)
    return out


def bs_add3(ops: LogicOps, a: BSVec, b: BSVec, c: BSVec) -> BSVec:
    """Three-operand borrow-save sum via two chained online adders."""
    return bs_add(ops, bs_add(ops, a, b), c)


#: a LUT6 as a 4:1 mux: inputs (d0, d1, d2, d3, s0, s1), output d[s1 s0]
_MUX4_TABLE = tuple(
    (idx >> (((idx >> 4) & 1) | (((idx >> 5) & 1) << 1))) & 1
    for idx in range(64)
)


def lut_tree(ops: LogicOps, table: Sequence[int], bits: Sequence[object]):
    """Realise an arbitrary k-input boolean function with LUT6s.

    Functions of up to six variables map to a single LUT.  Wider functions
    are Shannon-decomposed two variables at a time: four cofactor subtrees
    plus one LUT6 acting as a 4:1 multiplexer — the standard way synthesis
    tools stitch LUT6s, giving depth ``1 + ceil((k - 6) / 2)``.
    """
    k = len(bits)
    if len(table) != 2**k:
        raise ValueError(f"table must have {2 ** k} entries, got {len(table)}")
    if k <= 6:
        return ops.lut(table, bits)
    lo_bits = bits[: k - 2]
    s0, s1 = bits[k - 2], bits[k - 1]
    sub = 2 ** (k - 2)
    cofactors = [
        lut_tree(ops, table[i * sub : (i + 1) * sub], lo_bits)
        for i in range(4)
    ]
    return ops.lut(_MUX4_TABLE, (*cofactors, s0, s1))


def om_stage(
    ops: LogicOps,
    p: BSVec,
    h: BSVec,
    emit_z: bool,
    strict: bool = True,
) -> Tuple[Optional[Tuple[object, object]], BSVec]:
    """One unrolled online-multiplier stage: ``W = P + H``, digit
    selection, and the ``P' = 2*(W - z)`` update (Fig. 3(b)).

    ``P`` occupies positions >= 0 and ``H`` positions >= 3 (it carries the
    ``2**-delta`` scaling), so the adder cells only run over the tail
    (positions >= 3) while the selection/recode block reads ``P``'s top
    three digits plus the boundary carry ``g_3`` / borrow ``p_3`` directly
    — the estimate of :mod:`repro.core.selection`.  This keeps the
    stage-to-stage recurrence free of the W-adder: the critical cycle is
    one recode block per stage, which is what gives the unrolled multiplier
    its chain-annihilation timing slack.

    Returns ``(z, P')`` where ``z`` is the product digit as a
    ``(pos, neg)`` pair (None when ``emit_z`` is False — the paper's first
    ``delta`` stages have no selection logic).

    In a checking domain with ``strict`` set, estimates outside the
    reachable range raise :class:`ResidualOverflowError` instead of
    saturating like the hardware tables would.
    """
    zero = ops.const(0)
    if h and min(h) < 3:
        raise ValueError("H must not have digits above position 3")
    if p and min(p) < 0:
        raise ValueError("P must not have digits above position 0")

    if not p:
        # first stage: W = H and H has no selectable head -> P' = 2*H
        p_next0 = bs_shift(h, 1) if h else {}
        if emit_z:
            return (zero, zero), p_next0
        return None, p_next0

    def pbit(i: int, which: int):
        pair = p.get(i)
        return zero if pair is None else pair[which]

    def hbit(i: int, which: int):
        pair = h.get(i)
        return zero if pair is None else pair[which]

    p_next: BSVec = {}
    if h:
        hi = max(max(p), max(h))
        one = ops.const(1)
        # layer 1: x_i + y+_i - ... = 2*g_i - h_i
        g: Dict[int, object] = {}
        hh: Dict[int, object] = {}
        for i in range(3, hi + 1):
            xp, xn = pbit(i, 0), pbit(i, 1)
            yp = hbit(i, 0)
            g[i] = ops.maj3(xp, yp, ops.not_(xn))
            hh[i] = ops.xor3(xp, yp, xn)
        # layer 2: h_i + y-_i - g_{i+1} = 2*p_i - q_i
        q: Dict[int, object] = {}
        pc: Dict[int, object] = {}
        for i in range(3, hi + 1):
            gi1 = g.get(i + 1)
            q[i] = ops.xor3(hh[i], hbit(i, 1), zero if gi1 is None else gi1)
            ngi1 = one if gi1 is None else ops.not_(gi1)
            pc[i] = ops.maj3(hh[i], hbit(i, 1), ngi1)
        g3, p3 = g[3], pc[3]
        # tail of P' = shifted tail digits W'_i = q_i - p_{i+1}
        for i in range(3, hi + 1):
            p_next[i - 1] = (q[i], pc.get(i + 1, zero))
    else:
        # late stages: W = P exactly; the tail passes through as wires
        g3 = p3 = zero
        for i, pair in p.items():
            if i >= 3:
                p_next[i - 1] = pair

    bits = (
        pbit(0, 0), pbit(0, 1),
        pbit(1, 0), pbit(1, 1),
        pbit(2, 0), pbit(2, 1),
        g3, p3,
    )
    if strict and ops.checks_residual:
        v_quarters = estimate_quarters(tuple(int(b) for b in bits))
        if not residual_in_range(v_quarters, emit_z):
            raise ResidualOverflowError(
                f"selection estimate {v_quarters}/4 outside residual range "
                f"(emit_z={emit_z})"
            )

    tables = selection_tables(emit_z)
    r1p = lut_tree(ops, tables["r1p"], bits)
    r1n = lut_tree(ops, tables["r1n"], bits)
    r2p = lut_tree(ops, tables["r2p"], bits)
    r2n = lut_tree(ops, tables["r2n"], bits)
    # replacement digits: positions 1 and 2 of (W - z) become positions 0
    # and 1 of P' after the x2 shift
    p_next[0] = (r1p, r1n)
    p_next[1] = (r2p, r2n)
    if emit_z:
        zp = lut_tree(ops, tables["zp"], bits)
        zn = lut_tree(ops, tables["zn"], bits)
        return (zp, zn), p_next
    return None, p_next
