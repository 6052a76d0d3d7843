"""DSP datapaths built on the overclocking-synthesis front-end.

The paper motivates online arithmetic with latency-critical embedded
datapaths — exactly the sum-of-products structures of digital signal
processing.  This package provides ready-made generators for two of them,
each synthesizable in both arithmetics through
:class:`repro.core.synthesis.Datapath`:

* :func:`fir_datapath` — a K-tap FIR filter ``y = sum(c_k * x_k)``;
* :func:`dct8_datapath` — the 8-point DCT-II basis projection used by
  JPEG-class codecs.

Both scale their coefficients so every value stays inside the paper's
``(-1, 1)`` operand range, and both come with reference evaluators for
testing and with overclocking-comparison helpers.
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "fir_datapath": "repro.dsp.fir",
    "fir_reference": "repro.dsp.fir",
    "lowpass_coefficients": "repro.dsp.fir",
    "dct8_datapath": "repro.dsp.dct",
    "dct8_reference": "repro.dsp.dct",
    "DCT8_COEFFICIENTS": "repro.dsp.dct",
    "IIRExperiment": "repro.dsp.iir",
    "iir_body": "repro.dsp.iir",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
