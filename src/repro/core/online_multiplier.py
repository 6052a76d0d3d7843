"""The radix-2 digit-parallel online multiplier (Algorithm 1 / Fig. 3).

An ``N``-digit online multiplier (OM) unrolls the digit-serial recurrence

    H[j]   = 2**-delta * (x_{j+d+1} * Y[j+1]  +  y_{j+d+1} * X[j])
    W[j]   = P[j] + H[j]
    z_j    = sel(W[j])
    P[j+1] = 2 * (W[j] - z_j)

into ``N + delta`` combinational stages, ``j = -delta .. N-1`` (``delta = 3``
for radix 2 with digit set {-1, 0, 1}).  Stage ``S_j`` contains two
signed-digit vector multipliers (SDVM) forming ``H``, online adders for
``H`` and ``W``, and the selection/recode block.  Product digit ``z_j``
(weight ``2**-(j+1)``) emerges at stage ``S_j``; the first ``delta`` stages
have no selection logic and the last ``delta`` stages have no SDVM or
appending logic, exactly as the paper's area optimisation describes.

The recurrence maintains the invariant

    P[j] = 2**(j+1) * (X[j] * Y[j] - Z[j-1]),

so after the final stage ``|X*Y - Z| <= 2**-(N+1) * |P[N]|`` — the product
converges to ``N`` signed digits.

Three execution modes share one architecture description:

* :meth:`OnlineMultiplier.multiply` — bit-exact reference on Python ints;
* :meth:`OnlineMultiplier.wave` — the paper's *timing model*: every stage
  costs one delay unit ``mu``; all state starts at 0; after ``b`` ticks the
  outputs hold exactly what a register clocked at ``T_S = b * mu`` would
  capture (vectorized over a numpy batch — this drives the Monte-Carlo
  verification of the error model, Fig. 4 top row);
* :meth:`OnlineMultiplier.build_circuit` — the gate-level netlist used with
  :class:`repro.netlist.WaveformSimulator` for FPGA-like experiments
  (Fig. 4 bottom row and the case study).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import BSVec, bs_add, bs_shift, om_stage, sdvm
from repro.core.ops import IntOps, LogicOps, NetOps, NumpyOps
from repro.netlist.gates import Circuit
from repro.numrep.signed_digit import SDNumber

#: online delay of the radix-2 multiplier with digit set {-1, 0, 1}
ONLINE_DELTA = 3

#: bit pair type (domain-dependent)
Digit = Tuple[object, object]


class OnlineMultiplier:
    """An ``N``-digit radix-2 digit-parallel online multiplier.

    Operands and product are fractions in ``(-1, 1)`` with digits at
    positions ``1..N`` (Eq. (1) of the paper).
    """

    def __init__(self, ndigits: int, delta: int = ONLINE_DELTA) -> None:
        if ndigits < 1:
            raise ValueError("ndigits must be >= 1")
        if delta < 1:
            raise ValueError("delta must be >= 1")
        self.ndigits = ndigits
        self.delta = delta

    # ------------------------------------------------------------ structure
    @property
    def num_stages(self) -> int:
        """Total stage count ``N + delta`` (Fig. 3(a))."""
        return self.ndigits + self.delta

    def stage_indices(self) -> range:
        """Stage subscripts ``j = -delta .. N-1``."""
        return range(-self.delta, self.ndigits)

    def stage_has_append(self, j: int) -> bool:
        """True when stage ``S_j`` consumes a new input digit (SDVM present)."""
        return j + self.delta + 1 <= self.ndigits

    def stage_emits_digit(self, j: int) -> bool:
        """True when stage ``S_j`` has selection logic (produces ``z_j``)."""
        return j >= 0

    # ------------------------------------------------------------- datapath
    def _stage_h(
        self,
        ops: LogicOps,
        j: int,
        xdigits: Sequence[Digit],
        ydigits: Sequence[Digit],
    ) -> BSVec:
        """Form ``H[j]`` from the appended digits (empty for late stages)."""
        if not self.stage_has_append(j):
            return {}
        i_new = j + self.delta + 1  # 1-based index of the appended digit
        x_new = xdigits[i_new - 1]
        y_new = ydigits[i_new - 1]
        # Y[j+1] spans digit positions 1 .. j+delta+1 (includes y_new)
        y_vec: BSVec = {pos: ydigits[pos - 1] for pos in range(1, i_new + 1)}
        # X[j] spans digit positions 1 .. j+delta (empty at the first stage)
        x_vec: BSVec = {pos: xdigits[pos - 1] for pos in range(1, i_new)}
        a = bs_shift(sdvm(ops, x_new, y_vec), -self.delta)
        if not x_vec:
            return a
        b = bs_shift(sdvm(ops, y_new, x_vec), -self.delta)
        return bs_add(ops, a, b)

    def _stage(
        self,
        ops: LogicOps,
        j: int,
        p_in: BSVec,
        h: BSVec,
        strict: bool = True,
    ) -> Tuple[Optional[Digit], BSVec]:
        """Run one stage: returns ``(z_j or None, P[j+1])``."""
        return om_stage(
            ops, p_in, h, emit_z=self.stage_emits_digit(j), strict=strict
        )

    def run(
        self,
        ops: LogicOps,
        xdigits: Sequence[Digit],
        ydigits: Sequence[Digit],
        strict: bool = True,
        trace: Optional[List[Dict[str, object]]] = None,
    ) -> List[Digit]:
        """Execute the unrolled datapath once in any bit domain.

        Returns the product digits ``z_0 .. z_{N-1}`` as bit pairs.  When a
        *trace* list is supplied, per-stage records (``j``, ``W``, ``P``)
        are appended — the tests and the chain-analysis tooling use this.
        """
        if len(xdigits) != self.ndigits or len(ydigits) != self.ndigits:
            raise ValueError(f"operands must have {self.ndigits} digits")
        p: BSVec = {}
        zs: List[Digit] = []
        for j in self.stage_indices():
            h = self._stage_h(ops, j, xdigits, ydigits)
            z, p_next = self._stage(ops, j, p, h, strict=strict)
            if trace is not None:
                trace.append({"j": j, "H": h, "P_in": p, "P_next": p_next})
            if z is not None:
                zs.append(z)
            p = p_next
        assert len(zs) == self.ndigits
        return zs

    # ------------------------------------------------------------ reference
    def multiply(self, x: SDNumber, y: SDNumber) -> SDNumber:
        """Bit-exact product of two ``N``-digit operands (MSD first).

        The result has ``N`` digits at positions ``1..N``; the residual
        convergence bound guarantees ``|x*y - result| < 2**-(N-1)``.
        """
        xd = self._digits_to_bits(x)
        yd = self._digits_to_bits(y)
        zs = self.run(IntOps(), xd, yd)
        digits = tuple(int(p) - int(n) for p, n in zs)
        return SDNumber(digits, -1)

    def _digits_to_bits(self, number: SDNumber) -> List[Digit]:
        if len(number.digits) != self.ndigits or number.exp_msd != -1:
            raise ValueError(
                f"operand must be a fraction with {self.ndigits} digits "
                f"(exp_msd = -1)"
            )
        return [
            (1 if d == 1 else 0, 1 if d == -1 else 0) for d in number.digits
        ]

    # ----------------------------------------------------- stage-delay wave
    def wave(
        self,
        xdigits: np.ndarray,
        ydigits: np.ndarray,
        max_ticks: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Stage-delay timing simulation of a batch of multiplications.

        This is the paper's analytical timing model made executable: each
        stage costs exactly one delay unit ``mu``, all internal state is
        reset to 0, and the product digits a register would capture at
        ``T_S = b * mu`` are the wave state after ``b`` synchronous ticks.

        Parameters
        ----------
        xdigits, ydigits:
            Arrays of shape ``(N, S)`` with values in {-1, 0, 1}; row ``k``
            holds digit ``x_{k+1}`` for each of the ``S`` samples.
        max_ticks:
            Number of ticks to simulate (default ``N + delta``, after which
            the wave has fully settled); ``ValueError`` if negative.
        backend:
            ``"vector"`` dispatches to the digit-level behavioral engine
            (:func:`repro.vec.om_wave_vector`); ``"packed"`` runs the
            recurrence on bit-packed uint64 words (64 samples per word,
            :class:`PackedOps`); ``"wave"`` uses the original uint8-lane
            :class:`NumpyOps` evaluation.  None (default) takes the
            engine :func:`repro.netlist.engines.resolve_backend` picks
            for OM waves (``"vector"``).  All three produce bit-identical
            results at every tick.

        Returns
        -------
        ndarray of shape ``(max_ticks + 1, N, S)`` — entry ``[b, k, s]`` is
        the digit ``z_k`` sampled at period ``b * mu`` for sample ``s``
        (tick 0 is the all-zero reset state).
        """
        from repro.netlist.engines import resolve_backend

        resolved = resolve_backend(backend, "om-wave")
        n, delta = self.ndigits, self.delta
        xdigits = np.asarray(xdigits)
        ydigits = np.asarray(ydigits)
        if xdigits.shape != ydigits.shape or xdigits.shape[0] != n:
            raise ValueError(f"digit arrays must have shape ({n}, S)")
        num_samples = xdigits.shape[1]
        ticks = max_ticks if max_ticks is not None else self.num_stages
        if ticks < 0:
            raise ValueError(f"max_ticks must be >= 0, got {ticks}")

        if resolved == "vector":
            from repro.obs.metrics import metrics
            from repro.vec import om_wave_vector

            metrics().count("vec.samples", int(num_samples))
            return om_wave_vector(
                n, delta, xdigits, ydigits, max_ticks=ticks
            )
        packed = resolved != "wave"

        if packed:
            from repro.core.ops import PackedOps
            from repro.netlist.packing import pack_bits, packed_width

            ops: LogicOps = PackedOps()
            lanes = packed_width(num_samples)
            lane_dtype = np.uint64

            def plane(mask: np.ndarray) -> np.ndarray:
                return pack_bits(mask.astype(np.uint8))

        else:
            ops = NumpyOps()
            lanes = num_samples
            lane_dtype = np.uint8

            def plane(mask: np.ndarray) -> np.ndarray:
                return mask.astype(np.uint8)

        xbits = [
            (plane(xdigits[k] == 1), plane(xdigits[k] == -1))
            for k in range(n)
        ]
        ybits = [
            (plane(ydigits[k] == 1), plane(ydigits[k] == -1))
            for k in range(n)
        ]

        # H vectors are pure functions of the primary inputs: available
        # from the first tick (appending logic is free, as in the paper).
        h_static = [
            self._stage_h(ops, j, xbits, ybits) for j in self.stage_indices()
        ]

        # structural P shapes: run the settled recurrence once to learn the
        # per-stage position sets (they do not depend on data)
        p_shapes: List[List[int]] = []
        p_probe: BSVec = {}
        for idx, j in enumerate(self.stage_indices()):
            _z, p_probe = self._stage(
                ops, j, p_probe, h_static[idx], strict=False
            )
            p_shapes.append(sorted(p_probe))

        if packed:
            from repro.netlist.packing import unpack_bits

            def digit_plane(v) -> np.ndarray:
                arr = np.asarray(v, dtype=np.uint64)
                return unpack_bits(arr, num_samples).astype(np.int8)

        else:

            def digit_plane(v) -> np.ndarray:
                return np.asarray(v, dtype=np.int8)

        def zero_state(shape: List[int]) -> BSVec:
            return {
                pos: (
                    np.zeros(lanes, dtype=lane_dtype),
                    np.zeros(lanes, dtype=lane_dtype),
                )
                for pos in shape
            }

        state: List[BSVec] = [zero_state(s) for s in p_shapes]
        z_state = np.zeros((n, num_samples), dtype=np.int8)
        out = np.zeros((ticks + 1, n, num_samples), dtype=np.int8)

        for t in range(1, ticks + 1):
            new_state: List[BSVec] = []
            new_z = z_state.copy()
            p_prev: BSVec = {}
            for idx, j in enumerate(self.stage_indices()):
                p_in = state[idx - 1] if idx > 0 else p_prev
                z, p_next = self._stage(
                    ops, j, p_in, h_static[idx], strict=False
                )
                new_state.append(p_next)
                if z is not None:
                    zp, zn = z
                    new_z[j] = digit_plane(zp) - digit_plane(zn)
            state = new_state
            z_state = new_z
            out[t] = z_state
        return out

    # --------------------------------------------------------------- netlist
    def build_circuit(self, name: str = "online_mult") -> Circuit:
        """Emit the unrolled digit-parallel netlist.

        Ports (digit index ``k`` is MSD-first, i.e. digit ``x_{k+1}``):
        inputs ``xp{k}``/``xn{k}``, ``yp{k}``/``yn{k}`` for k in [0, N);
        outputs ``zp{k}``/``zn{k}`` for k in [0, N).
        """
        c = Circuit(f"{name}{self.ndigits}")
        ops = NetOps(c)
        xd = [(c.input(f"xp{k}"), c.input(f"xn{k}")) for k in range(self.ndigits)]
        yd = [(c.input(f"yp{k}"), c.input(f"yn{k}")) for k in range(self.ndigits)]
        zs = self.run(ops, xd, yd, strict=False)
        for k, (p, n) in enumerate(zs):
            c.output(f"zp{k}", p)
            c.output(f"zn{k}", n)
        return c


def online_multiply(x: SDNumber, y: SDNumber) -> SDNumber:
    """Convenience wrapper: bit-exact ``N``-digit online product."""
    if len(x.digits) != len(y.digits):
        raise ValueError("operands must have equal digit counts")
    return OnlineMultiplier(len(x.digits)).multiply(x, y)


def build_online_multiplier(ndigits: int, name: str = "online_mult") -> Circuit:
    """Convenience wrapper around :meth:`OnlineMultiplier.build_circuit`."""
    return OnlineMultiplier(ndigits).build_circuit(name)
