"""Gaussian image-filter datapaths (the paper's Section 4 case study).

A 3x3 quantized Gaussian kernel

    (1/64) * [[3,  8, 3],
              [8, 20, 8],
              [3,  8, 3]]          (sigma ~ 0.9, sums to exactly 1)

is applied to an 8-bit image by a combinational datapath of nine
multipliers and an adder tree, built twice from the gate library:

* **traditional** — two's-complement Q1.8 operands, Baugh-Wooley array
  multipliers and a carry-save adder tree with a final ripple-carry adder
  (the CoreGen stand-in);
* **online** — 8-digit signed-digit operands, nine digit-parallel online
  multipliers and a tree of carry-free online adders.

The kernel coefficients are embedded as constants and propagated through
the netlist the way a synthesis tool would (see
:meth:`repro.netlist.Circuit.gate`), so both designs contain exactly the
live logic a real filter would ship.  Setting
``coefficients_as_inputs=True`` instead feeds the coefficients through
input ports (generic multiplier cores) — the ablation the benchmarks use
to quantify how much dead logic distorts an overclocking comparison.

Both datapaths are swept across clock periods with the waveform simulator:
one simulation of a whole image yields the filtered output at every
overclocked frequency at once.  Pixels are normalised to the fraction
``p / 256 in [0, 1)`` so every operand fits the paper's ``(-1, 1)``
operand range; the filter output is decoded back to pixel scale for the
MRE/SNR metrics and for writing the Fig. 7 images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arith.adder_tree import adder_tree
from repro.arith.array_multiplier import array_multiplier
from repro.core.kernels import BSVec, bs_add
from repro.core.online_multiplier import OnlineMultiplier
from repro.core.ops import NetOps
from repro.core.synthesis import DatapathRun
from repro.imaging.metrics import mre_percent as _mre_percent
from repro.imaging.metrics import snr_db as _snr_db
from repro.imaging.synthetic import benchmark_image
from repro.netlist.compiled import critical_delay, make_simulator, shared_circuit
from repro.netlist.engines import resolve_backend
from repro.netlist.delay import DelayModel, FpgaDelay, delay_key_components
from repro.netlist.gates import Circuit
from repro.numrep.signed_digit import SDNumber, sd_canonical
from repro.runners.cache import run_cached
from repro.runners.config import RunConfig
from repro.runners.parallel import ParallelRunner
from repro.obs.trace import current_tracer
from repro.runners.results import register_result

#: quantized Gaussian kernel in units of 1/64, row-major
GAUSSIAN_KERNEL_64THS = np.array(
    [[3, 8, 3], [8, 20, 8], [3, 8, 3]], dtype=np.int64
)

#: kernel denominator as a power of two (Gaussian preset)
KERNEL_FRAC_BITS = 6

#: horizontal Sobel edge kernel in units of 1/8 (signed coefficients)
SOBEL_X_KERNEL_8THS = np.array(
    [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64
)

#: vertical Sobel edge kernel in units of 1/8
SOBEL_Y_KERNEL_8THS = SOBEL_X_KERNEL_8THS.T.copy()

#: named kernel presets for :func:`run_filter_study`: name -> (kernel, frac_bits)
KERNEL_PRESETS: Dict[str, Tuple[np.ndarray, int]] = {
    "gaussian": (GAUSSIAN_KERNEL_64THS, KERNEL_FRAC_BITS),
    "sobel-x": (SOBEL_X_KERNEL_8THS, 3),
    "sobel-y": (SOBEL_Y_KERNEL_8THS, 3),
}


def convolution_reference(
    image: np.ndarray, kernel: np.ndarray, frac_bits: int
) -> np.ndarray:
    """Exact fixed-point 3x3 convolution, in pixel scale (floats).

    Returns the filtered interior ``(H-2, W-2)``: exactly
    ``sum(k_ij * p_ij) / 2**frac_bits`` — the value the traditional
    datapath converges to when clocked safely (the online one adds its
    N-digit product rounding).
    """
    image = np.asarray(image, dtype=np.int64)
    kernel = np.asarray(kernel, dtype=np.int64)
    if image.ndim != 2 or min(image.shape) < 3:
        raise ValueError("image must be 2-D and at least 3x3")
    if kernel.shape != (3, 3):
        raise ValueError("kernel must be 3x3")
    h, w = image.shape
    acc = np.zeros((h - 2, w - 2), dtype=np.int64)
    for dy in range(3):
        for dx in range(3):
            acc += kernel[dy, dx] * image[dy : dy + h - 2, dx : dx + w - 2]
    return acc / float(2**frac_bits)


def gaussian_reference(image: np.ndarray) -> np.ndarray:
    """Exact 3x3 Gaussian filter (the :data:`GAUSSIAN_KERNEL_64THS` preset)."""
    return convolution_reference(image, GAUSSIAN_KERNEL_64THS, KERNEL_FRAC_BITS)


def image_patches(image: np.ndarray) -> np.ndarray:
    """Gather the nine 3x3-neighbourhood pixel streams: shape ``(9, S)``."""
    image = np.asarray(image)
    if image.ndim != 2 or min(image.shape) < 3:
        raise ValueError("image must be 2-D and at least 3x3")
    h, w = image.shape
    rows = []
    for dy in range(3):
        for dx in range(3):
            rows.append(image[dy : dy + h - 2, dx : dx + w - 2].ravel())
    return np.stack(rows)


@dataclass
class FilterRun(DatapathRun):
    """One simulated image: a :class:`~repro.core.synthesis.DatapathRun`
    whose single output is the filtered interior.

    ``decode(step)`` returns the filter output in pixel scale (floats in
    0..255 when timing-correct; arbitrary when violated), shaped like the
    interior of the filtered image.
    """

    shape: Tuple[int, int]

    def decode(self, step: int) -> np.ndarray:
        """Filter output values (pixel scale) at clock period *step*."""
        return super().decode(step).reshape(self.shape)

    def _arrays(self, values: np.ndarray) -> List[np.ndarray]:
        return [values]

    def output_image(self, step: int) -> np.ndarray:
        """8-bit image at clock period *step* (values clipped to 0..255)."""
        return np.clip(np.round(self.decode(step)), 0, 255).astype(np.uint8)


def _style_spec(arithmetic: str) -> str:
    """The default multiplier spec of one arithmetic style (validated)."""
    from repro.synth.spec import default_spec_name

    return default_spec_name("mul", arithmetic)


# ------------------------------------------ builders (shared_circuit keys)


def _coeff_scaled(
    kernel: Sequence[int], frac_bits: int, ndigits: int, tap: int
) -> int:
    """Coefficient numerator scaled by ``2**ndigits`` (may be signed)."""
    return int(kernel[tap]) * 2 ** (ndigits - frac_bits)


def _coeff_digit_nets(
    c: Circuit, scaled: int, n: int
) -> List[Tuple[int, int]]:
    """Scaled coefficient as N signed-digit (pos, neg) const-net pairs.

    Uses the canonical (minimal-weight) recoding so embedded
    multipliers fold to their live logic.
    """
    sign = 1 if scaled >= 0 else -1
    mag = abs(scaled)
    digits = [sign * ((mag >> (n - 1 - k)) & 1) for k in range(n)]
    sd = sd_canonical(SDNumber.from_iterable(digits, exp_msd=-1))
    # only use the minimal-weight recoding when it fits the fraction
    # window (|coeff| > 1/2 would need a digit at position 0)
    if any(
        d and not (1 <= k - sd.exp_msd <= n)
        for k, d in enumerate(sd.digits)
    ):
        chosen = {k + 1: d for k, d in enumerate(digits)}
    else:
        chosen = {
            k - sd.exp_msd: d for k, d in enumerate(sd.digits)
        }
    zero, one = c.const0(), c.const1()
    pairs: List[Tuple[int, int]] = []
    for pos in range(1, n + 1):
        d = chosen.get(pos, 0)
        pairs.append(
            (one if d == 1 else zero, one if d == -1 else zero)
        )
    return pairs


def _build_online(
    kernel: Tuple[int, ...], frac_bits: int, n: int, coefficients_as_inputs: bool
) -> Circuit:
    c = Circuit(f"conv_online{n}_{abs(sum(kernel))}")
    ops = NetOps(c)
    om = OnlineMultiplier(n)
    products: List[BSVec] = []
    for tap in range(9):
        px = [
            (c.input(f"p{tap}_p{k}"), c.input(f"p{tap}_n{k}"))
            for k in range(n)
        ]
        if coefficients_as_inputs:
            co = [
                (c.input(f"c{tap}_p{k}"), c.input(f"c{tap}_n{k}"))
                for k in range(n)
            ]
        else:
            co = _coeff_digit_nets(
                c, _coeff_scaled(kernel, frac_bits, n, tap), n
            )
        zs = om.run(ops, px, co, strict=False)
        products.append({k + 1: zs[k] for k in range(n)})
    # carry-free online adder tree (each level adds one MSD position)
    level = products
    while len(level) > 1:
        nxt: List[BSVec] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(bs_add(ops, level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    total = level[0]
    for idx, pos in enumerate(sorted(total)):
        p, nn = total[pos]
        c.output(f"sp{idx}", p)
        c.output(f"sn{idx}", nn)
    return c


def _build_traditional(
    kernel: Tuple[int, ...], frac_bits: int, n: int, coefficients_as_inputs: bool
) -> Circuit:
    width = n + 1  # Q1.n two's complement
    out_width = 2 * width + 2
    c = Circuit(f"conv_trad{n}_{abs(sum(kernel))}")
    zero, one = c.const0(), c.const1()
    products = []
    for tap in range(9):
        px = [c.input(f"p{tap}_b{i}") for i in range(width)]
        if coefficients_as_inputs:
            co = [c.input(f"c{tap}_b{i}") for i in range(width)]
        else:
            raw = _coeff_scaled(kernel, frac_bits, n, tap) & ((1 << width) - 1)
            co = [one if (raw >> i) & 1 else zero for i in range(width)]
        products.append(array_multiplier(c, px, co))
    total = adder_tree(c, products, out_width)
    for i, net in enumerate(total):
        c.output(f"s{i}", net)
    return c


def datapath_circuit(
    arithmetic: str,
    kernel: np.ndarray,
    kernel_frac_bits: int,
    ndigits: int,
    coefficients_as_inputs: bool = False,
) -> Circuit:
    """The frozen netlist of one convolution datapath, built once per process."""
    build = _build_online if arithmetic == "online" else _build_traditional
    return shared_circuit(
        build,
        tuple(int(k) for k in np.asarray(kernel).ravel()),
        int(kernel_frac_bits),
        int(ndigits),
        bool(coefficients_as_inputs),
    )


class ConvolutionDatapath:
    """A complete 3x3 convolution datapath in one arithmetic style.

    Like the sweep harnesses, a datapath is a cheap view over
    :func:`~repro.netlist.compiled.shared_circuit` and the compile LRU.

    Construct via :meth:`from_spec` (the uniform spec-driven spelling,
    matching the sweep harnesses); every constructor argument is
    keyword-only.

    Parameters
    ----------
    spec:
        Multiplier :class:`~repro.synth.spec.OperatorSpec` (or its
        registry name) with ``kind="mul"``; its style, ``"online"`` or
        ``"traditional"``, picks the arithmetic.
    kernel:
        3x3 integer kernel numerators (may be signed, e.g. Sobel).
    kernel_frac_bits:
        Kernel denominator exponent: coefficient values are
        ``kernel / 2**kernel_frac_bits``.  ``sum(|kernel|)`` must not
        exceed ``2**kernel_frac_bits`` so the output stays in ``(-1, 1)``.
    ndigits:
        Operand precision: the online design uses ``ndigits`` signed
        digits; the traditional design uses ``ndigits + 1`` two's-complement
        bits (1 sign + ``ndigits`` fraction), the paper's range-parity
        pairing.  Must be >= 8 to hold 8-bit pixels exactly.
    delay_model:
        Gate delays; defaults to the FPGA-like jittered model.
    coefficients_as_inputs:
        Feed the kernel through input ports (generic multiplier cores)
        instead of embedding it as constants.  Default False.  Only
        non-negative kernels support this mode (the port encoder feeds
        plain binary digits).
    backend:
        Simulation engine: ``"packed"`` (the default,
        :func:`~repro.netlist.engines.resolve_backend`) compiles the
        datapath to the bit-packed engine; ``"wave"`` uses the interpreting
        waveform simulator; ``"vector"`` falls back to the packed engine
        (the behavioral engine has no gate-level netlist semantics).
        Outputs are bit-identical in every case.
    config:
        Optional :class:`~repro.runners.RunConfig`; when given, its
        ``ndigits`` and ``backend`` (when set) override the corresponding
        keyword arguments, so CLI/experiment code can thread one
        parameter block through every layer.
    """

    def __init__(
        self,
        *,
        spec,
        kernel: np.ndarray = GAUSSIAN_KERNEL_64THS,
        kernel_frac_bits: int = KERNEL_FRAC_BITS,
        ndigits: int = 8,
        delay_model: Optional[DelayModel] = None,
        coefficients_as_inputs: bool = False,
        backend: Optional[str] = None,
        config: Optional[RunConfig] = None,
    ) -> None:
        if config is not None:
            ndigits = config.ndigits
            backend = config.backend or backend
        from repro.synth.spec import resolve_operator

        self.spec = resolve_operator(spec, "mul")
        arithmetic = self.spec.style
        if ndigits < 8:
            raise ValueError("ndigits must be >= 8 to represent 8-bit pixels")
        kernel = np.asarray(kernel, dtype=np.int64)
        if kernel.shape != (3, 3):
            raise ValueError("kernel must be 3x3")
        if np.abs(kernel).sum() > 2**kernel_frac_bits:
            raise ValueError(
                "sum(|kernel|) must be <= 2**kernel_frac_bits to keep the "
                "output inside (-1, 1)"
            )
        if ndigits < kernel_frac_bits:
            raise ValueError("ndigits must cover the kernel precision")
        if coefficients_as_inputs and kernel.min() < 0:
            raise ValueError(
                "coefficients_as_inputs supports non-negative kernels only"
            )
        self.kernel = kernel
        self.kernel_frac_bits = kernel_frac_bits
        self.arithmetic = arithmetic
        self.ndigits = ndigits
        self.coefficients_as_inputs = coefficients_as_inputs
        self.delay_model = (
            delay_model if delay_model is not None else FpgaDelay()
        )
        self.circuit = datapath_circuit(
            arithmetic, kernel, kernel_frac_bits, ndigits,
            coefficients_as_inputs,
        )
        self.backend = resolve_backend(backend, "netlist")
        self.simulator = make_simulator(
            self.circuit, self.delay_model, self.backend
        )
        self.rated_step = critical_delay(self.simulator)

    @classmethod
    def from_spec(cls, spec, **fmt) -> "ConvolutionDatapath":
        """Build around a registered multiplier :class:`OperatorSpec`.

        *spec* is a registry name or an ``OperatorSpec`` with
        ``kind="mul"``; its style picks the arithmetic (``"online-mult"``
        -> online datapath, ``"array-mult"`` -> traditional).  *fmt*
        forwards the remaining keyword arguments of the constructor
        (``kernel``, ``kernel_frac_bits``, ``ndigits``, ``delay_model``,
        ``coefficients_as_inputs``, ``backend``, ``config``).
        """
        return cls(spec=spec, **fmt)

    # ------------------------------------------------------------- encoding
    def _encode_online(self, patches: np.ndarray) -> Dict[str, np.ndarray]:
        n = self.ndigits
        ports: Dict[str, np.ndarray] = {}
        for tap in range(9):
            # pixel value p/256 scaled by 2**n
            pix = patches[tap].astype(np.int64) << (n - 8)
            for k in range(n):
                weight = n - 1 - k  # digit k has scaled weight 2**(n-1-k)
                ports[f"p{tap}_p{k}"] = ((pix >> weight) & 1).astype(np.uint8)
                ports[f"p{tap}_n{k}"] = np.zeros(pix.shape, dtype=np.uint8)
            if self.coefficients_as_inputs:
                coeff = _coeff_scaled(
                    self.kernel.ravel(), self.kernel_frac_bits, n, tap
                )
                for k in range(n):
                    weight = n - 1 - k
                    ports[f"c{tap}_p{k}"] = np.uint8((coeff >> weight) & 1)
                    ports[f"c{tap}_n{k}"] = np.uint8(0)
        return ports

    def _encode_traditional(self, patches: np.ndarray) -> Dict[str, np.ndarray]:
        n = self.ndigits
        width = n + 1
        ports: Dict[str, np.ndarray] = {}
        for tap in range(9):
            # pixel value p/256 scaled by 2**n, non-negative
            pix = patches[tap].astype(np.int64) << (n - 8)
            for i in range(width):
                ports[f"p{tap}_b{i}"] = ((pix >> i) & 1).astype(np.uint8)
            if self.coefficients_as_inputs:
                coeff = _coeff_scaled(
                    self.kernel.ravel(), self.kernel_frac_bits, n, tap
                )
                for i in range(width):
                    ports[f"c{tap}_b{i}"] = np.uint8((coeff >> i) & 1)
        return ports

    # ------------------------------------------------------------- decoding
    def _decode_online(self, sample: Dict[str, np.ndarray]) -> np.ndarray:
        total = np.zeros(
            next(iter(sample.values())).shape[0], dtype=np.float64
        )
        # the adder tree only grows MSD positions: the output digits
        # are contiguous and end at the products' last position n
        num_digits = len(self.circuit.output_map) // 2
        first = self.ndigits + 1 - num_digits
        for idx in range(num_digits):
            pos = first + idx
            digit = sample[f"sp{idx}"].astype(np.float64) - sample[
                f"sn{idx}"
            ].astype(np.float64)
            total += digit * 2.0 ** (-pos)
        return total * 256.0  # back to pixel scale

    def _decode_traditional(self, sample: Dict[str, np.ndarray]) -> np.ndarray:
        width = len(self.circuit.output_map)
        raw = np.zeros(next(iter(sample.values())).shape[0], dtype=np.int64)
        for i in range(width):
            raw |= sample[f"s{i}"].astype(np.int64) << i
        sign = raw >= (1 << (width - 1))
        raw = raw - (sign.astype(np.int64) << width)
        return raw.astype(np.float64) / 2.0 ** (2 * self.ndigits) * 256.0

    # ------------------------------------------------------------------ run
    def apply(self, image: np.ndarray) -> FilterRun:
        """Filter *image* and return the full overclocking sweep."""
        image = np.asarray(image)
        patches = image_patches(image)
        if self.arithmetic == "online":
            ports = self._encode_online(patches)
            decode = self._decode_online
        else:
            ports = self._encode_traditional(patches)
            decode = self._decode_traditional
        return FilterRun.measure(
            self.simulator.run(ports),
            decode,
            self.rated_step,
            shape=(image.shape[0] - 2, image.shape[1] - 2),
        )


class GaussianFilterDatapath(ConvolutionDatapath):
    """The paper's case-study filter: the quantized Gaussian kernel preset."""

    def __init__(
        self,
        arithmetic: Optional[str] = None,
        ndigits: int = 8,
        delay_model: Optional[DelayModel] = None,
        coefficients_as_inputs: bool = False,
        backend: Optional[str] = None,
        *,
        spec=None,
    ) -> None:
        super().__init__(
            spec=spec if spec is not None else _style_spec(arithmetic),
            kernel=GAUSSIAN_KERNEL_64THS,
            kernel_frac_bits=KERNEL_FRAC_BITS,
            ndigits=ndigits,
            delay_model=delay_model,
            coefficients_as_inputs=coefficients_as_inputs,
            backend=backend,
        )


class SobelFilterDatapath(ConvolutionDatapath):
    """Horizontal Sobel edge detector — a *signed*-coefficient datapath.

    Exercises negative constants through both arithmetics: signed-digit
    coefficients for the online design, two's-complement constants for the
    traditional one.  Output values lie in ``(-1, 1)`` (edge magnitude up
    to ~2 gray-levels/8).
    """

    def __init__(
        self,
        arithmetic: Optional[str] = None,
        ndigits: int = 8,
        delay_model: Optional[DelayModel] = None,
        vertical: bool = False,
        backend: Optional[str] = None,
        *,
        spec=None,
    ) -> None:
        kernel = SOBEL_Y_KERNEL_8THS if vertical else SOBEL_X_KERNEL_8THS
        super().__init__(
            spec=spec if spec is not None else _style_spec(arithmetic),
            kernel=kernel,
            kernel_frac_bits=3,
            ndigits=ndigits,
            delay_model=delay_model,
            backend=backend,
        )


# ------------------------------------------------------------- filter study

@register_result
@dataclass
class FilterStudyResult:
    """Quality metrics of one kernel over an (arithmetic, image) grid.

    The array axes follow the list fields: ``rated_step[a, i]`` etc. are
    indexed by ``arithmetics[a]`` and ``images[i]``; the metric arrays add
    a trailing ``factors`` axis (``mre_percent[a, i, f]`` is the MRE when
    the ``arithmetics[a]`` datapath filters ``images[i]`` clocked at
    ``factors[f]`` times its own measured error-free frequency).
    """

    images: List[str]
    arithmetics: List[str]
    factors: List[float]
    kernel: str
    size: int
    ndigits: int
    rated_step: np.ndarray  # (A, I)
    error_free_step: np.ndarray  # (A, I)
    settle_step: np.ndarray  # (A, I)
    mre_percent: np.ndarray  # (A, I, F)
    snr_db: np.ndarray  # (A, I, F)

    kind: ClassVar[str] = "filter_study"
    _array_fields: ClassVar[Dict[str, str]] = {
        "rated_step": "int64",
        "error_free_step": "int64",
        "settle_step": "int64",
        "mre_percent": "float64",
        "snr_db": "float64",
    }

    # ------------------------------------------------------------ accessors
    def _cell(self, arithmetic: str, image: str) -> Tuple[int, int]:
        return self.arithmetics.index(arithmetic), self.images.index(image)

    def steps(self, arithmetic: str, image: str) -> Dict[str, int]:
        """Rated / error-free / settle periods of one datapath on one image."""
        a, i = self._cell(arithmetic, image)
        return {
            "rated_step": int(self.rated_step[a, i]),
            "error_free_step": int(self.error_free_step[a, i]),
            "settle_step": int(self.settle_step[a, i]),
        }

    def _factor_index(self, factor: float) -> int:
        for f, known in enumerate(self.factors):
            if abs(known - factor) < 1e-9:
                return f
        raise ValueError(f"factor {factor!r} not in study grid {self.factors}")

    def mre(self, arithmetic: str, image: str, factor: float) -> float:
        """MRE (percent) at ``factor`` times the error-free frequency."""
        a, i = self._cell(arithmetic, image)
        return float(self.mre_percent[a, i, self._factor_index(factor)])

    def snr(self, arithmetic: str, image: str, factor: float) -> float:
        """SNR (dB) at ``factor`` times the error-free frequency."""
        a, i = self._cell(arithmetic, image)
        return float(self.snr_db[a, i, self._factor_index(factor)])


def _filter_job_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One study job: filter one benchmark image with one datapath."""
    kernel, frac_bits = KERNEL_PRESETS[payload["kernel"]]
    datapath = ConvolutionDatapath.from_spec(
        _style_spec(payload["arithmetic"]),
        kernel=kernel,
        kernel_frac_bits=frac_bits,
        ndigits=payload["ndigits"],
        delay_model=payload["delay_model"],
        backend=payload["backend"],
    )
    image = benchmark_image(payload["image"], size=payload["size"])
    run = datapath.apply(image)
    mres: List[float] = []
    snrs: List[float] = []
    for factor in payload["factors"]:
        out = run.at_factor(factor)
        mres.append(float(_mre_percent(run.correct, out)))
        snrs.append(float(_snr_db(run.correct, out)))
    return {
        "rated": int(run.rated_step),
        "error_free": int(run.error_free_step),
        "settle": int(run.settle_step),
        "mre": mres,
        "snr": snrs,
    }


def run_filter_study(
    config: RunConfig,
    images: Sequence[str] = ("lena",),
    arithmetics: Sequence[str] = ("traditional", "online"),
    factors: Sequence[float] = (1.05, 1.10, 1.15, 1.20, 1.25),
    size: int = 48,
    kernel: str = "gaussian",
    delay_model: Optional[DelayModel] = None,
    runner: Optional[ParallelRunner] = None,
) -> FilterStudyResult:
    """Filter-quality study over an (arithmetic, image) grid (Tables 1-2).

    Each (arithmetic, image) cell is one job — a full overclocking sweep
    of that datapath on that benchmark image — and the jobs fan out
    across ``config.jobs`` worker processes.  The benchmark images are
    generated from fixed per-image seeds and the datapaths are fully
    deterministic, so ``config.seed`` (and ``shard_size``) do not enter
    the result or its cache key; ``ndigits`` does.
    """
    images = [str(name) for name in images]
    arithmetics = [str(a) for a in arithmetics]
    factors = [float(f) for f in factors]
    if int(size) < 3:
        raise ValueError(
            f"size must be >= 3 (the kernel size) to leave an interior "
            f"pixel, got {size}"
        )
    if kernel not in KERNEL_PRESETS:
        raise ValueError(
            f"unknown kernel preset {kernel!r}; choose from "
            f"{sorted(KERNEL_PRESETS)}"
        )
    for arith in arithmetics:
        if arith not in ("online", "traditional"):
            raise ValueError("arithmetics must be 'online' or 'traditional'")
    if config.ndigits < 8:
        raise ValueError("ndigits must be >= 8 to represent 8-bit pixels")
    model = delay_model if delay_model is not None else FpgaDelay()
    engine = resolve_backend(config.backend, "netlist")
    runner = runner or ParallelRunner.from_config(config)

    def key_components() -> Dict[str, Any]:
        described = config.describe()
        described.pop("seed")  # pixel-deterministic: no randomness consumed
        described.pop("shard_size")  # jobs are whole images, never sharded
        return dict(
            experiment="filter_study",
            kernel=kernel,
            images=images,
            arithmetics=arithmetics,
            factors=factors,
            size=int(size),
            **delay_key_components(model, {
                arith: datapath_circuit(arith, *KERNEL_PRESETS[kernel],
                                        config.ndigits)
                for arith in arithmetics
            }),
            **described,
        )

    def compute() -> FilterStudyResult:
        jobs = [
            {
                "arithmetic": arith,
                "image": name,
                "kernel": kernel,
                "size": int(size),
                "ndigits": config.ndigits,
                "backend": engine,
                "delay_model": model,
                "factors": factors,
            }
            for arith in arithmetics
            for name in images
        ]
        # one "sample" per filtered interior pixel, for throughput stats
        samples = [(size - 2) * (size - 2)] * len(jobs)
        parts = runner.map(_filter_job_worker, jobs, samples=samples)

        num_a, num_i, num_f = len(arithmetics), len(images), len(factors)
        rated = np.zeros((num_a, num_i), dtype=np.int64)
        error_free = np.zeros((num_a, num_i), dtype=np.int64)
        settle = np.zeros((num_a, num_i), dtype=np.int64)
        mre = np.zeros((num_a, num_i, num_f), dtype=np.float64)
        snr = np.zeros((num_a, num_i, num_f), dtype=np.float64)
        for job_idx, part in enumerate(parts):
            a, i = divmod(job_idx, num_i)
            rated[a, i] = part["rated"]
            error_free[a, i] = part["error_free"]
            settle[a, i] = part["settle"]
            mre[a, i, :] = part["mre"]
            snr[a, i, :] = part["snr"]
        return FilterStudyResult(
            images=images,
            arithmetics=arithmetics,
            factors=factors,
            kernel=kernel,
            size=int(size),
            ndigits=config.ndigits,
            rated_step=rated,
            error_free_step=error_free,
            settle_step=settle,
            mre_percent=mre,
            snr_db=snr,
        )

    with current_tracer().span(
        "run.filter_study",
        kernel=kernel,
        images=images,
        arithmetics=arithmetics,
        size=int(size),
        ndigits=config.ndigits,
        engine=engine,
    ):
        return run_cached(
            config, runner, "filter_study", engine, key_components, compute
        )
