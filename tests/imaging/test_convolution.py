"""Tests for the generic convolution datapath and the Sobel preset."""

import numpy as np
import pytest

from repro.imaging.filters import (
    SOBEL_X_KERNEL_8THS,
    SOBEL_Y_KERNEL_8THS,
    ConvolutionDatapath,
    SobelFilterDatapath,
    convolution_reference,
)
from repro.imaging.synthetic import benchmark_image
from repro.netlist.delay import UnitDelay


@pytest.fixture(scope="module")
def image():
    return benchmark_image("sailboat", size=12)


class TestConvolutionReference:
    def test_identity_kernel(self):
        img = benchmark_image("lena", size=8)
        kernel = np.zeros((3, 3), dtype=np.int64)
        kernel[1, 1] = 4
        out = convolution_reference(img, kernel, 2)
        assert np.array_equal(out, img[1:-1, 1:-1].astype(float))

    def test_sobel_zero_on_flat(self):
        flat = np.full((8, 8), 77, dtype=np.uint8)
        out = convolution_reference(flat, SOBEL_X_KERNEL_8THS, 3)
        assert np.all(out == 0)

    def test_sobel_detects_vertical_edge(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[:, 4:] = 200
        out = convolution_reference(img, SOBEL_X_KERNEL_8THS, 3)
        assert out.max() > 50  # strong response at the edge
        out_y = convolution_reference(img, SOBEL_Y_KERNEL_8THS, 3)
        assert np.abs(out_y).max() == 0  # orthogonal kernel silent

    def test_kernel_shape_check(self):
        with pytest.raises(ValueError):
            convolution_reference(np.zeros((5, 5)), np.zeros((2, 2)), 3)


class TestConvolutionDatapath:
    def test_kernel_overflow_guard(self):
        kernel = np.full((3, 3), 10, dtype=np.int64)  # sums to 90 > 64
        with pytest.raises(ValueError):
            ConvolutionDatapath.from_spec(
                "online-mult", kernel=kernel, kernel_frac_bits=6
            )

    def test_signed_kernel_rejects_input_coefficients(self):
        with pytest.raises(ValueError):
            ConvolutionDatapath.from_spec(
                "online-mult",
                kernel=SOBEL_X_KERNEL_8THS,
                kernel_frac_bits=3,
                coefficients_as_inputs=True,
            )

    def test_ndigits_must_cover_kernel(self):
        with pytest.raises(ValueError):
            ConvolutionDatapath.from_spec(
                "array-mult",
                kernel=SOBEL_X_KERNEL_8THS,
                kernel_frac_bits=9,
                ndigits=8,
            )

    @pytest.mark.parametrize("arith", ["traditional", "online"])
    def test_sobel_matches_reference(self, image, arith):
        dp = SobelFilterDatapath(arith, delay_model=UnitDelay())
        run = dp.apply(image)
        ref = convolution_reference(image, SOBEL_X_KERNEL_8THS, 3)
        tol = 1e-9 if arith == "traditional" else 9 * 2**-8 * 256
        assert np.abs(run.correct - ref).max() <= tol

    @pytest.mark.parametrize("arith", ["traditional", "online"])
    def test_vertical_variant(self, image, arith):
        dp = SobelFilterDatapath(arith, delay_model=UnitDelay(), vertical=True)
        run = dp.apply(image)
        ref = convolution_reference(image, SOBEL_Y_KERNEL_8THS, 3)
        tol = 1e-9 if arith == "traditional" else 9 * 2**-8 * 256
        assert np.abs(run.correct - ref).max() <= tol

    def test_sobel_overclocking_sweep(self, image):
        """Signed-coefficient datapaths show the same LSD-vs-MSB split."""
        worst = {}
        for arith in ("traditional", "online"):
            dp = SobelFilterDatapath(arith, delay_model=UnitDelay())
            run = dp.apply(image)
            out = run.decode(max(1, int(run.error_free_step * 0.9)))
            worst[arith] = float(np.abs(out - run.correct).max())
        assert worst["online"] <= worst["traditional"] or worst["online"] < 8.0

    def test_negative_outputs_decoded(self, image):
        dp = SobelFilterDatapath("traditional", delay_model=UnitDelay())
        run = dp.apply(image)
        assert run.correct.min() < 0  # edges in both directions
