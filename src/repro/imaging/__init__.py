"""Image-processing case study substrate (Section 4 of the paper).

The paper demonstrates the latency-accuracy trade-off on a Gaussian image
filter implemented twice — conventional two's-complement arithmetic versus
online arithmetic — overclocked on a Virtex-6.  This package provides:

* deterministic synthetic stand-ins for the four benchmark images
  (:mod:`repro.imaging.synthetic` — see DESIGN.md for the substitution
  rationale),
* the 3x3 Gaussian filter datapaths built from the gate-level operators
  (:mod:`repro.imaging.filters`), and
* the paper's quality metrics — mean relative error and SNR
  (:mod:`repro.imaging.metrics`).
"""

from repro import _lazy

#: public name -> defining module, imported on first access
_EXPORTS = {
    "benchmark_image": "repro.imaging.synthetic",
    "BENCHMARK_IMAGES": "repro.imaging.synthetic",
    "lena_like": "repro.imaging.synthetic",
    "pepper_like": "repro.imaging.synthetic",
    "sailboat_like": "repro.imaging.synthetic",
    "tiffany_like": "repro.imaging.synthetic",
    "uniform_noise_image": "repro.imaging.synthetic",
    "mre_percent": "repro.imaging.metrics",
    "snr_db": "repro.imaging.metrics",
    "psnr_db": "repro.imaging.metrics",
    "GAUSSIAN_KERNEL_64THS": "repro.imaging.filters",
    "KERNEL_PRESETS": "repro.imaging.filters",
    "SOBEL_X_KERNEL_8THS": "repro.imaging.filters",
    "SOBEL_Y_KERNEL_8THS": "repro.imaging.filters",
    "ConvolutionDatapath": "repro.imaging.filters",
    "FilterStudyResult": "repro.imaging.filters",
    "GaussianFilterDatapath": "repro.imaging.filters",
    "SobelFilterDatapath": "repro.imaging.filters",
    "convolution_reference": "repro.imaging.filters",
    "gaussian_reference": "repro.imaging.filters",
    "image_patches": "repro.imaging.filters",
    "run_filter_study": "repro.imaging.filters",
    "write_pgm": "repro.imaging.pgm",
    "read_pgm": "repro.imaging.pgm",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
