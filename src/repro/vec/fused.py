"""One-pass multi-period sweep fusion, and the one OM capture dispatch.

The paper's central artifact is the latency-accuracy *sweep*: error
statistics of the online multiplier as the clock period ``T_S`` shrinks
below the rated period.  Under the stage-delay timing model a period
``T_S`` cuts every propagation chain at depth ``b = ceil(T_S / mu)`` —
and that cut is the **only** period-dependent step of the whole
evaluation.  Evaluating ``P`` periods by re-running the stage pipeline
once per period (one truncated wave per ``b``) therefore wastes almost
all of its work: every run walks the same stages over the same operands
and differs only in where the capture register samples.

:func:`om_sweep_vector` fuses the sweep on the vector engine: a single
stage-by-stage pass over the ``(positions, samples)`` int8 arrays that
emits capture snapshots for *all* requested depths at once.  The tick
loop is the engine's own (:func:`repro.vec.engine._wave_chunk` with an
explicit emission map), so every snapshot is **bit-identical** to the
per-period path and to the gate-level engines — the fused kernel
changes the cost of a sweep, never a digit of it.  Duplicate depths
(several periods mapping to the same ``b``) are evaluated once and
expanded for free.

:func:`stage_snapshots` is the one place where an OM-wave shard gets
its capture rows: one :meth:`repro.core.OnlineMultiplier.wave` pass on
the shard's engine, up to the deepest requested depth, with the
requested rows read out.  Every Monte-Carlo, settle, probe, stage-sweep
and stage-profile shard captures through it.  On the vector engine the
plain wave and :func:`om_sweep_vector` run the same tick loop to the
same depth, so the fused kernel would only save a few row copies there;
it serves synthesis verification (:mod:`repro.synth.search`).

:func:`fused_sweep_partial` layers the sweep statistics on top, in the
exact partial-sum currency ``repro.sim.sweep._sweep_from_partials``
merges — per-depth \\|error\\| sums and violation counts against the
settled product.  The per-period reference oracle
:func:`repro.sim.sweep.stage_sweep_partial` feeds its per-depth
snapshots through the *same* :func:`stage_error_partials` helper, so
fused and unfused paths share every float operation in the same order
and the resulting ``SweepResult`` arrays are bit-identical, not merely
close (``tests/vec/test_fused_conformance.py`` pins this).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.conversion import digits_to_scaled_int
from repro.vec.engine import _CHUNK, _Workspace, _wave_chunk

__all__ = [
    "om_sweep_vector",
    "stage_snapshots",
    "fused_sweep_partial",
    "stage_error_partials",
    "stage_digit_mismatch_counts",
]


def _validated_depths(
    ndigits: int, delta: int, depths: Sequence[int]
) -> np.ndarray:
    """Depths as an int64 array, clamped to the structural settle depth.

    Depths beyond ``N + delta`` capture the settled product (the wave no
    longer changes), exactly as the montecarlo sampler clamps them;
    negative depths are rejected — there is no state before reset.
    """
    arr = np.asarray(list(depths), dtype=np.int64)
    if arr.size == 0:
        raise ValueError("at least one capture depth is required")
    if arr.min() < 0:
        raise ValueError(f"capture depths must be >= 0, got {arr.min()}")
    return np.minimum(arr, ndigits + delta)


def om_sweep_vector(
    ndigits: int,
    delta: int,
    xdigits: np.ndarray,
    ydigits: np.ndarray,
    depths: Sequence[int],
) -> np.ndarray:
    """Capture snapshots at every requested depth in one fused pass.

    Parameters
    ----------
    ndigits, delta:
        Multiplier geometry (as in :func:`repro.vec.om_wave_vector`).
    xdigits, ydigits:
        Operand digit arrays of shape ``(N, S)``, values in {-1, 0, 1}.
    depths:
        Chain-cut depths ``b`` to capture, in any order, duplicates
        allowed.  Depths beyond ``N + delta`` clamp to the settled
        product; depth 0 is the all-zero reset state.

    Returns
    -------
    ndarray of shape ``(len(depths), N, S)`` int8 — row ``i`` is
    bit-identical to ``om_wave_vector(...)[depths[i]]`` (and hence to the
    gate-level engines at that tick), but the stage pipeline runs
    **once**, up to ``max(depths)`` ticks, instead of once per depth.
    """
    if ndigits < 1:
        raise ValueError("ndigits must be >= 1")
    if delta < 3:
        raise ValueError("the radix-2 selection boundary requires delta >= 3")
    xv = np.asarray(xdigits)
    yv = np.asarray(ydigits)
    if xv.shape != yv.shape or xv.shape[0] != ndigits:
        raise ValueError(f"digit arrays must have shape ({ndigits}, S)")
    requested = _validated_depths(ndigits, delta, depths)
    unique, inverse = np.unique(requested, return_inverse=True)
    ticks = int(unique[-1])

    n = ndigits
    num_samples = xv.shape[1]
    xv = xv.astype(np.int8, copy=False)
    yv = yv.astype(np.int8, copy=False)
    out = np.zeros((len(unique), n, num_samples), dtype=np.int8)
    # tick -> output row (-1: the state advances but nothing captures);
    # depth 0 needs no emission — row 0 of ``out`` is already the reset
    # state the tick loop would copy there.
    emit_rows = np.full(ticks + 1, -1, dtype=np.int64)
    emit_rows[unique] = np.arange(len(unique))
    ws = _Workspace(n, delta, min(_CHUNK, num_samples))
    for lo in range(0, num_samples, _CHUNK):
        hi = min(lo + _CHUNK, num_samples)
        _wave_chunk(
            n,
            delta,
            ticks,
            xv[:, lo:hi],
            yv[:, lo:hi],
            out[:, :, lo:hi],
            ws.view(hi - lo),
            emit_rows=emit_rows,
        )
    return out[inverse]


def stage_snapshots(
    ndigits: int,
    delta: int,
    xdigits: np.ndarray,
    ydigits: np.ndarray,
    depths: Sequence[int],
    backend: Optional[str] = None,
) -> np.ndarray:
    """Capture rows of the OM wave at every depth, on any engine.

    Returns ``(len(depths), N, S)`` int8, with :func:`om_sweep_vector`'s
    grid rules: depths in any order, duplicates allowed, beyond
    ``N + delta`` clamped to the settled product, an empty or negative
    grid rejected.  One :meth:`repro.core.OnlineMultiplier.wave` pass on
    *backend* runs up to the deepest requested depth and its rows are
    read out, so the rows are bit-identical on every engine.
    """
    from repro.core.online_multiplier import OnlineMultiplier

    requested = _validated_depths(ndigits, delta, depths)
    return OnlineMultiplier(ndigits, delta).wave(
        xdigits, ydigits, max_ticks=int(requested.max()), backend=backend
    )[requested]


def stage_error_partials(
    snapshots: np.ndarray,
    settled: np.ndarray,
    ndigits: int,
) -> Dict[str, object]:
    """Per-depth sweep partials from capture snapshots.

    ``snapshots`` has shape ``(D, N, S)`` (one row per swept depth) and
    ``settled`` shape ``(N, S)`` (the fully settled product digits).
    Returns the shard-merge currency of
    ``repro.sim.sweep._sweep_from_partials``: per-depth \\|error\\| sums
    (float64, product-value units) and violation counts (int64).

    Both the fused kernel and the per-period oracle route their
    snapshots through this one function, so the float accumulation
    order — and therefore every merged statistic — is bit-identical
    across the two paths by construction.
    """
    scale = float(2**ndigits)
    correct = digits_to_scaled_int(settled).astype(np.float64)
    sum_err = np.empty(snapshots.shape[0], dtype=np.float64)
    viol = np.empty(snapshots.shape[0], dtype=np.int64)
    for i in range(snapshots.shape[0]):
        sampled = digits_to_scaled_int(snapshots[i]).astype(np.float64)
        err = np.abs(sampled - correct) / scale
        sum_err[i] = float(err.sum())
        viol[i] = int((err > 0).sum())
    return {
        "sum_err": sum_err,
        "viol": viol,
        "num_samples": int(settled.shape[1]),
    }


def stage_digit_mismatch_counts(
    snapshots: np.ndarray, settled: np.ndarray
) -> np.ndarray:
    """Per-(depth, digit) mismatch counts — exact integers.

    The stage-timing analog of
    :func:`repro.sim.error_profile._digit_error_counts`: entry ``[i, k]``
    counts the samples whose digit ``z_k`` (MSD first) differs from the
    settled product at swept depth ``i``.  Shared by the fused fast path
    and the per-period oracle so both produce the same grid from the
    same snapshots.
    """
    return (snapshots != settled[None]).sum(axis=2, dtype=np.int64)


def fused_sweep_partial(
    ndigits: int,
    delta: int,
    xdigits: np.ndarray,
    ydigits: np.ndarray,
    steps: Sequence[int],
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """One shard of a stage-timing sweep: all periods, one pass.

    Captures the sweep grid *steps* (chain-cut depths, in any order)
    plus the settled reference through one :func:`stage_snapshots` call
    on *backend* and returns the ``_sweep_from_partials`` currency, with
    the structural ``settle_step = rated_step = N + delta`` of the
    stage-delay timing model.
    """
    steps_list: List[int] = [int(b) for b in steps]
    s_tot = ndigits + delta
    snaps = stage_snapshots(
        ndigits, delta, xdigits, ydigits, steps_list + [s_tot], backend
    )
    settled = snaps[-1]
    partial = stage_error_partials(snaps[:-1], settled, ndigits)
    partial["settle_step"] = s_tot
    partial["rated_step"] = s_tot
    return partial
