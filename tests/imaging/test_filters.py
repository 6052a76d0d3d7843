"""Tests for the Gaussian-filter datapaths (small images for speed)."""

import numpy as np
import pytest

from repro.imaging.filters import (
    GAUSSIAN_KERNEL_64THS,
    GaussianFilterDatapath,
    gaussian_reference,
    image_patches,
)
from repro.imaging.synthetic import benchmark_image
from repro.netlist.delay import UnitDelay


@pytest.fixture(scope="module")
def small_image():
    return benchmark_image("lena", size=14)


@pytest.fixture(scope="module")
def runs(small_image):
    out = {}
    for arith in ("traditional", "online"):
        dp = GaussianFilterDatapath(arith, delay_model=UnitDelay())
        out[arith] = (dp, dp.apply(small_image))
    return out


class TestFromSpec:
    """Spec-driven construction and the deprecated positional shim."""

    def test_from_spec_picks_arithmetic_from_style(self):
        import warnings

        from repro.imaging.filters import ConvolutionDatapath

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            online = ConvolutionDatapath.from_spec(
                "online-mult", ndigits=8, delay_model=UnitDelay()
            )
            trad = ConvolutionDatapath.from_spec(
                "array-mult", ndigits=8, delay_model=UnitDelay()
            )
        assert online.arithmetic == "online"
        assert trad.arithmetic == "traditional"
        assert online.spec.name == "online-mult"

    def test_from_spec_rejects_adder_specs(self):
        from repro.imaging.filters import ConvolutionDatapath

        with pytest.raises(ValueError):
            ConvolutionDatapath.from_spec("online-add", ndigits=8)

    def test_positional_constructor_rejected(self):
        from repro.imaging.filters import ConvolutionDatapath

        with pytest.raises(TypeError):
            ConvolutionDatapath("online", ndigits=8, delay_model=UnitDelay())

    def test_preset_subclasses_stay_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dp = GaussianFilterDatapath("online", delay_model=UnitDelay())
        assert dp.spec.name == "online-mult"

    def test_unknown_arithmetic_rejected(self):
        from repro.imaging.filters import ConvolutionDatapath

        with pytest.raises(KeyError, match="ternary"):
            ConvolutionDatapath.from_spec("ternary", ndigits=8)


class TestKernelAndReference:
    def test_kernel_normalised(self):
        assert GAUSSIAN_KERNEL_64THS.sum() == 64

    def test_kernel_symmetric(self):
        k = GAUSSIAN_KERNEL_64THS
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, k[::-1, ::-1])

    def test_reference_shape(self, small_image):
        out = gaussian_reference(small_image)
        assert out.shape == (12, 12)

    def test_reference_preserves_constant(self):
        flat = np.full((8, 8), 100, dtype=np.uint8)
        assert np.allclose(gaussian_reference(flat), 100.0)

    def test_reference_range(self, small_image):
        out = gaussian_reference(small_image)
        assert out.min() >= 0 and out.max() <= 255

    def test_reference_rejects_small(self):
        with pytest.raises(ValueError):
            gaussian_reference(np.zeros((2, 5)))

    def test_patches_layout(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        patches = image_patches(img)
        assert patches.shape == (9, 4)
        # centre tap of the first patch is pixel (1, 1) = 5
        assert patches[4, 0] == 5


class TestDatapaths:
    def test_traditional_matches_reference_exactly(self, small_image, runs):
        _dp, run = runs["traditional"]
        ref = gaussian_reference(small_image)
        assert np.allclose(run.correct, ref)

    def test_online_matches_reference_within_truncation(
        self, small_image, runs
    ):
        """Each online product is rounded to N digits: |err| <= 9 * 2^-N
        image units (the nine-tap sum of per-product truncation)."""
        _dp, run = runs["online"]
        ref = gaussian_reference(small_image)
        assert np.abs(run.correct - ref).max() <= 9 * 2**-8 * 256

    @pytest.mark.parametrize("arith", ["traditional", "online"])
    def test_error_free_frequency_found(self, runs, arith):
        _dp, run = runs[arith]
        assert 0 < run.error_free_step <= run.settle_step
        assert np.array_equal(run.decode(run.error_free_step), run.correct)

    @pytest.mark.parametrize("arith", ["traditional", "online"])
    def test_overclocking_causes_errors(self, runs, arith):
        _dp, run = runs[arith]
        overclocked = run.decode(max(1, run.error_free_step // 2))
        assert not np.array_equal(overclocked, run.correct)

    def test_output_image_clipping(self, runs):
        _dp, run = runs["traditional"]
        img = run.output_image(run.settle_step)
        assert img.dtype == np.uint8

    def test_step_for_factor(self, runs):
        _dp, run = runs["online"]
        assert run.step_for_factor(1.0) == run.error_free_step
        assert run.step_for_factor(2.0) == run.error_free_step // 2
        with pytest.raises(ValueError):
            run.step_for_factor(0)

    def test_invalid_arithmetic(self):
        with pytest.raises(ValueError):
            GaussianFilterDatapath("decimal")

    def test_ndigits_minimum(self):
        with pytest.raises(ValueError):
            GaussianFilterDatapath("online", ndigits=4)

    def test_coefficient_input_variant_builds(self, small_image):
        dp = GaussianFilterDatapath(
            "traditional",
            delay_model=UnitDelay(),
            coefficients_as_inputs=True,
        )
        run = dp.apply(small_image)
        ref = gaussian_reference(small_image)
        assert np.allclose(run.correct, ref)

    def test_constant_folding_shrinks_circuit(self, small_image):
        folded = GaussianFilterDatapath("traditional", delay_model=UnitDelay())
        generic = GaussianFilterDatapath(
            "traditional", delay_model=UnitDelay(), coefficients_as_inputs=True
        )
        assert folded.circuit.num_gates < generic.circuit.num_gates


class TestDegenerateFrameStudy:
    """The study must skip, not crash, on degenerate-but-legal frames.

    An edge filter over the all-black ``"flat"`` benchmark frame has an
    all-zero correct output.  ``mre_percent``/``snr_db`` historically
    raised ``ValueError`` there, aborting the entire sweep; they now
    report the documented ``0.0``/``nan`` and ``inf``/``-inf`` values
    and the study aggregates them untouched.
    """

    def test_flat_frame_edge_filter_completes(self, tmp_path):
        import math

        from repro.imaging.filters import run_filter_study
        from repro.runners import RunConfig

        config = RunConfig(ndigits=8, cache_dir=str(tmp_path))
        study = run_filter_study(
            config,
            images=["flat"],
            arithmetics=["traditional"],
            factors=[1.05, 1.25],
            size=10,
            kernel="sobel-x",
            delay_model=UnitDelay(),
        )
        for factor in (1.05, 1.25):
            # the correct output is all-zero while the overclocked
            # capture is not (folded negative coefficients hold nonzero
            # internal nodes mid-settle), so the documented degenerate
            # values appear: no reference magnitude, noise without signal
            assert math.isnan(study.mre("traditional", "flat", factor))
            assert study.snr("traditional", "flat", factor) == -math.inf
        # non-finite / degenerate values survive the cache round-trip
        again = run_filter_study(
            config,
            images=["flat"],
            arithmetics=["traditional"],
            factors=[1.05, 1.25],
            size=10,
            kernel="sobel-x",
            delay_model=UnitDelay(),
        )
        assert again.run_stats.cache == "hit"
        np.testing.assert_array_equal(again.snr_db, study.snr_db)
