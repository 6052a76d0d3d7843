"""The composable operator-spec abstraction behind the auto-synthesizer.

An :class:`OperatorSpec` bundles everything the toolchain needs to know
about one arithmetic operator implementation:

* a **netlist builder** (standalone circuit, for area/timing estimation
  and the single-operator harnesses),
* a **lowering hook** (how the operator is instantiated inside a
  :class:`repro.core.synthesis.Datapath` circuit),
* an **analytical error model** (the Section-3 expected overclocking
  error for online operators; a feasible/infeasible cliff for
  conventional ones — the paper's qualitative contrast),
* **area and delay hooks** (LUT estimate and propagation depth in units
  of the online-multiplier stage delay ``mu``), and
* **encode/decode hooks** (value <-> port-bit conversion for the
  operator's standalone netlist).

Implementations self-register into a process-wide registry
(:func:`register_operator` / :func:`operator_spec`), which is what lets
``repro.synth`` enumerate per-operator implementation choices, the sweep
harnesses grow a uniform ``from_spec`` constructor, and
``Datapath.synthesize`` collapse its two hand-written lowering paths
into one spec-driven walk.

Timing currency
---------------
All delays are expressed in units of the online-multiplier **stage
delay** ``mu`` — the paper's analytical timing quantum (Section 3).  For
word length ``N`` and online delay ``delta``, ``mu`` is the unit-delay
critical path of the ``N``-digit online multiplier divided by its
``N + delta`` stages (:func:`stage_quantum`, an exact
:class:`~fractions.Fraction`).  A conventional operator's depth is its
unit-delay critical path re-expressed in those units and rounded up
(:func:`spec_stages`), so online and conventional candidates compete on
one clock axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arith.adder_tree import adder_tree, build_adder_tree
from repro.arith.array_multiplier import array_multiplier, build_array_multiplier
from repro.core.conversion import (
    bits_to_scaled_int,
    digits_to_scaled_int,
    port_values_from_digits,
)
from repro.core.model.expectation import OverclockingErrorModel
from repro.core.online_adder import build_online_adder
from repro.core.online_multiplier import OnlineMultiplier
from repro.netlist.area import AreaReport, estimate_area
from repro.netlist.compiled import shared_circuit
from repro.netlist.delay import UnitDelay
from repro.netlist.sta import static_timing

__all__ = [
    "OperatorSpec",
    "register_operator",
    "operator_spec",
    "resolve_operator",
    "registered_operators",
    "default_spec_name",
    "stage_quantum",
    "spec_stages",
    "spec_area",
    "OM_TRUNCATION_FACTOR",
    "INPUT_QUANTIZATION_FACTOR",
]

#: Expected magnitude of the online multiplier's output truncation, as a
#: multiple of ``2**-ndigits``.  The settled ``N``-digit online product
#: differs from the exact ``2N``-digit product by at most one ULP
#: (``|X*Y - Z| <= 2**-(N+1) * |P[N]|``, the Algorithm-1 invariant); the
#: *mean* magnitude over uniform operands is about a quarter ULP.
OM_TRUNCATION_FACTOR = 0.25

#: Expected magnitude of quantizing a uniform ``(-1, 1)`` input to
#: ``ndigits`` fractional digits, as a multiple of ``2**-ndigits``:
#: round-to-nearest error is uniform in ``+-0.5`` ULP, mean 0.25 ULP.
INPUT_QUANTIZATION_FACTOR = 0.25


@dataclass(frozen=True)
class OperatorSpec:
    """One operator implementation, described for the whole toolchain.

    Parameters
    ----------
    name:
        Registry key (e.g. ``"online-mult"``).
    style:
        ``"online"`` (signed-digit, MSD-first, gracefully degrading) or
        ``"traditional"`` (two's complement, catastrophic past rated).
    kind:
        ``"mul"`` or ``"add"`` — which datapath nodes the spec can lower.
    build:
        ``build(ndigits, delta=3, width=None) -> Circuit`` — standalone
        netlist.  ``width`` is the two's-complement operand width for
        traditional operators (default ``ndigits + 1``, the paper's
        range-parity pairing); online operators ignore it (they keep
        every value at ``ndigits`` digits by construction).
    lower:
        Style-specific in-circuit lowering hook used by
        :meth:`repro.core.synthesis.Datapath.synthesize`; signature
        documented per style in :mod:`repro.core.synthesis`.
    expected_error:
        ``expected_error(ndigits, delta, b, width=None, kappa=1.0)`` —
        expected |output error| when the operator is sampled after ``b``
        stage delays.  ``math.inf`` means *infeasible*: the operator has
        no graceful degradation at that period (a timing-violated
        conventional operator corrupts from the MSB down).
    description:
        One-line provenance note for reports.
    """

    name: str
    style: str
    kind: str
    build: Callable[..., Any]
    lower: Optional[Callable[..., Any]] = None
    expected_error: Optional[Callable[..., float]] = None
    encode: Optional[Callable[..., Dict[str, np.ndarray]]] = None
    decode: Optional[Callable[..., np.ndarray]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.style not in ("online", "traditional"):
            raise ValueError(
                f"spec style must be 'online' or 'traditional', got {self.style!r}"
            )
        if self.kind not in ("mul", "add"):
            raise ValueError(f"spec kind must be 'mul' or 'add', got {self.kind!r}")

    # ------------------------------------------------------------ hooks
    def circuit(self, ndigits: int, delta: int = 3, width: Optional[int] = None):
        """The standalone netlist from the process-wide table (frozen).

        ``width`` is normalized first, so every spelling of one netlist
        shares a single table entry.
        """
        if self.style == "online":
            width = None
        elif width is None:
            width = ndigits + 1
        return shared_circuit(self.build, ndigits, delta, width)

    def stages(self, ndigits: int, delta: int = 3, width: Optional[int] = None) -> int:
        """Propagation depth in stage-delay units ``mu`` (memoized)."""
        return spec_stages(self, ndigits, delta, width)

    def area(self, ndigits: int, delta: int = 3, width: Optional[int] = None) -> AreaReport:
        """LUT/slice estimate of the standalone netlist (memoized)."""
        return spec_area(self, ndigits, delta, width)

    def error_at(
        self,
        ndigits: int,
        delta: int,
        b: int,
        width: Optional[int] = None,
        kappa: float = 1.0,
    ) -> float:
        """Expected |error| at capture depth ``b`` (``inf`` = infeasible)."""
        if self.expected_error is not None:
            return float(
                self.expected_error(ndigits, delta, b, width=width, kappa=kappa)
            )
        # default: a conventional feasibility cliff at the rated depth
        return 0.0 if b >= self.stages(ndigits, delta, width) else math.inf


# ---------------------------------------------------------------- registry
_REGISTRY: Dict[str, OperatorSpec] = {}

#: the spec each (kind, style) pair lowers to when only a style is named
_DEFAULTS: Dict[Tuple[str, str], str] = {
    ("mul", "online"): "online-mult",
    ("mul", "traditional"): "array-mult",
    ("add", "online"): "online-add",
    ("add", "traditional"): "kogge-stone-add",
}


def register_operator(spec: OperatorSpec) -> OperatorSpec:
    """Register *spec* under its name (idempotent for identical names)."""
    _REGISTRY[spec.name] = spec
    return spec


def operator_spec(name: str) -> OperatorSpec:
    """Look up a registered spec; raise with the valid names otherwise."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown operator spec {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def resolve_operator(
    spec, kind: str, style: Optional[str] = None
) -> OperatorSpec:
    """*spec* (registry name or OperatorSpec), checked to be a *kind*
    operator — and of *style*, when given."""
    resolved = operator_spec(spec) if isinstance(spec, str) else spec
    if not isinstance(resolved, OperatorSpec):
        raise TypeError(
            f"spec must be a registry name or an OperatorSpec, "
            f"got {type(resolved).__name__}"
        )
    if resolved.kind != kind:
        raise ValueError(
            f"operator spec {resolved.name!r} is a {resolved.kind!r} "
            f"implementation; expected a {kind!r} operator"
        )
    if style is not None and resolved.style != style:
        raise ValueError(
            f"operator spec {resolved.name!r} has style {resolved.style!r}; "
            f"expected style {style!r}"
        )
    return resolved


def registered_operators(
    kind: Optional[str] = None, style: Optional[str] = None
) -> List[OperatorSpec]:
    """Registered specs, optionally filtered by kind and/or style."""
    return [
        spec
        for name, spec in sorted(_REGISTRY.items())
        if (kind is None or spec.kind == kind)
        and (style is None or spec.style == style)
    ]


def default_spec_name(kind: str, style: str) -> str:
    """The spec a bare style string resolves to for *kind* nodes."""
    try:
        return _DEFAULTS[(kind, style)]
    except KeyError:
        raise ValueError(
            f"no default operator for kind={kind!r}, style={style!r}"
        ) from None


# ----------------------------------------------------- timing/area memos
_DEPTH_MEMO: Dict[Tuple[str, int, int, Optional[int]], int] = {}
_AREA_MEMO: Dict[Tuple[str, int, int, Optional[int]], AreaReport] = {}
_QUANTUM_MEMO: Dict[Tuple[int, int], Fraction] = {}


def stage_quantum(ndigits: int, delta: int = 3) -> Fraction:
    """The stage delay ``mu`` in unit-gate delays, as an exact Fraction.

    Defined so that the ``N``-digit online multiplier's structural
    critical path is exactly ``N + delta`` stages — the paper's timing
    normalization (every stage costs one ``mu``).
    """
    key = (ndigits, delta)
    if key not in _QUANTUM_MEMO:
        circuit = operator_spec("online-mult").circuit(ndigits, delta)
        depth = static_timing(circuit, UnitDelay()).critical_delay
        _QUANTUM_MEMO[key] = Fraction(depth, ndigits + delta)
    return _QUANTUM_MEMO[key]


def spec_stages(
    spec: OperatorSpec, ndigits: int, delta: int = 3, width: Optional[int] = None
) -> int:
    """Propagation depth of *spec*'s netlist in stage units (ceil)."""
    key = (spec.name, ndigits, delta, width)
    if key not in _DEPTH_MEMO:
        if spec.name == "online-mult":
            # mu is defined from this very netlist; avoid the rebuild
            _DEPTH_MEMO[key] = ndigits + delta
        else:
            circuit = spec.circuit(ndigits, delta, width)
            depth = static_timing(circuit, UnitDelay()).critical_delay
            mu = stage_quantum(ndigits, delta)
            # ceil(depth / mu), exactly
            _DEPTH_MEMO[key] = max(
                1, -((-depth * mu.denominator) // mu.numerator)
            )
    return _DEPTH_MEMO[key]


def spec_area(
    spec: OperatorSpec, ndigits: int, delta: int = 3, width: Optional[int] = None
) -> AreaReport:
    """Area estimate of *spec*'s standalone netlist (memoized)."""
    key = (spec.name, ndigits, delta, width)
    if key not in _AREA_MEMO:
        _AREA_MEMO[key] = estimate_area(spec.circuit(ndigits, delta, width))
    return _AREA_MEMO[key]


# ------------------------------------------------------- built-in: online mul
def _om_build(ndigits: int, delta: int = 3, width: Optional[int] = None):
    return OnlineMultiplier(ndigits, delta).build_circuit()


def _om_error(
    ndigits: int,
    delta: int,
    b: int,
    width: Optional[int] = None,
    kappa: float = 1.0,
) -> float:
    """Section-3 expected overclocking error plus the truncation floor.

    The settled contribution (``b >= N + delta``) is the output
    truncation alone; below that, Eq. (10) with the calibrated ``kappa``
    is added on top.  Depths at or below ``delta`` clamp to
    ``delta + 1`` (the first product digit cannot be produced earlier —
    same clamp as :meth:`OverclockingErrorModel.expectation_curve`).
    """
    trunc = OM_TRUNCATION_FACTOR * 2.0**-ndigits
    if b >= ndigits + delta:
        return trunc
    model = OverclockingErrorModel(ndigits, delta, kappa=kappa)
    return model.expected_error(max(int(b), delta + 1)) + trunc


def _om_encode(ndigits: int, xdigits: np.ndarray, ydigits: np.ndarray):
    ports, _ = port_values_from_digits("x", xdigits)
    ports_y, _ = port_values_from_digits("y", ydigits)
    ports.update(ports_y)
    return ports


def _om_decode(ndigits: int, outputs: Dict[str, np.ndarray]) -> np.ndarray:
    digits = np.stack(
        [
            outputs[f"zp{k}"].astype(np.int8) - outputs[f"zn{k}"].astype(np.int8)
            for k in range(ndigits)
        ]
    )
    return digits_to_scaled_int(digits) / float(2**ndigits)


def _om_lower(ops, ndigits: int, delta: int, a_pairs, b_pairs):
    """In-circuit lowering: Algorithm 1 on borrow-save operand pairs."""
    zs = OnlineMultiplier(ndigits, delta).run(ops, a_pairs, b_pairs, strict=False)
    return {k + 1: bit_pair for k, bit_pair in enumerate(zs)}


register_operator(
    OperatorSpec(
        name="online-mult",
        style="online",
        kind="mul",
        build=_om_build,
        lower=_om_lower,
        expected_error=_om_error,
        encode=_om_encode,
        decode=_om_decode,
        description="radix-2 digit-parallel online multiplier (Algorithm 1)",
    )
)


# -------------------------------------------------- built-in: array multiplier
def _am_build(ndigits: int, delta: int = 3, width: Optional[int] = None):
    return build_array_multiplier(width if width is not None else ndigits + 1)


def _am_encode(width: int, x_scaled: np.ndarray, y_scaled: np.ndarray):
    ports: Dict[str, np.ndarray] = {}
    for name, values in (("a", x_scaled), ("b", y_scaled)):
        values = np.asarray(values, dtype=np.int64)
        lo, hi = -(2 ** (width - 1)), 2 ** (width - 1) - 1
        if values.min() < lo or values.max() > hi:
            raise ValueError(f"operands overflow {width}-bit two's complement")
        raw = np.where(values < 0, values + (1 << width), values)
        for i in range(width):
            ports[f"{name}{i}"] = ((raw >> i) & 1).astype(np.uint8)
    return ports


def _am_decode(width: int, outputs: Dict[str, np.ndarray]) -> np.ndarray:
    bits = np.stack([outputs[f"p{i}"] for i in range(2 * width)])
    return bits_to_scaled_int(bits) / float(2 ** (2 * (width - 1)))


def _am_lower(circuit, a_bits, b_bits):
    return array_multiplier(circuit, a_bits, b_bits)


register_operator(
    OperatorSpec(
        name="array-mult",
        style="traditional",
        kind="mul",
        build=_am_build,
        lower=_am_lower,
        encode=_am_encode,
        decode=_am_decode,
        description="two's-complement Baugh-Wooley array multiplier "
        "(CSA reduction + Kogge-Stone resolution)",
    )
)


# ------------------------------------------------------ built-in: online add
def _oa_build(ndigits: int, delta: int = 3, width: Optional[int] = None):
    return build_online_adder(ndigits)


def _oa_error(
    ndigits: int,
    delta: int,
    b: int,
    width: Optional[int] = None,
    kappa: float = 1.0,
) -> float:
    # carry-free: constant depth below one stage quantum; exact whenever
    # the clock grants at least one stage traversal
    return 0.0 if b >= 1 else math.inf


def _oa_lower(ops, a_vec, b_vec):
    from repro.core.kernels import bs_add

    return bs_add(ops, a_vec, b_vec)


register_operator(
    OperatorSpec(
        name="online-add",
        style="online",
        kind="add",
        build=_oa_build,
        lower=_oa_lower,
        expected_error=_oa_error,
        description="borrow-save (carry-free) signed-digit adder",
    )
)


# ------------------------------------------- built-in: conventional adders
def _ks_build(ndigits: int, delta: int = 3, width: Optional[int] = None):
    w = width if width is not None else ndigits + 1
    return build_adder_tree(2, w, w + 1)


def _ks_lower(circuit, rows, out_width):
    return adder_tree(circuit, rows, out_width, final_adder="kogge_stone")


register_operator(
    OperatorSpec(
        name="kogge-stone-add",
        style="traditional",
        kind="add",
        build=_ks_build,
        lower=_ks_lower,
        description="carry-save compression + Kogge-Stone prefix resolution",
    )
)


def _rca_build(ndigits: int, delta: int = 3, width: Optional[int] = None):
    from repro.arith.ripple_carry import build_ripple_carry_adder

    w = width if width is not None else ndigits + 1
    return build_ripple_carry_adder(w)


def _rca_lower(circuit, rows, out_width):
    return adder_tree(circuit, rows, out_width, final_adder="ripple")


register_operator(
    OperatorSpec(
        name="rca-add",
        style="traditional",
        kind="add",
        build=_rca_build,
        lower=_rca_lower,
        description="ripple-carry adder (small, linear-depth baseline)",
    )
)
