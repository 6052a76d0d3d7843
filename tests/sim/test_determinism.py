"""Seeded reproducibility across simulation backends.

The Monte-Carlo experiments must be exactly reproducible from their seed,
and switching the evaluation engine must not change a single bit: both
backends run the identical operator recurrence (the ``LogicOps``
providers share the kernels), so their ``MonteCarloResult`` arrays are
required to be *equal*, not merely close.
"""

import numpy as np

from repro.runners import RunConfig
from repro.sim.montecarlo import (
    run_montecarlo,
    run_settle_histogram,
    uniform_digit_batch,
)
from repro.sim.sweep import OnlineMultiplierHarness


def _config(seed, backend):
    return RunConfig(ndigits=6, seed=seed, cache_dir=None, backend=backend)


def _results_equal(a, b):
    assert a.ndigits == b.ndigits
    assert a.delta == b.delta
    assert a.num_samples == b.num_samples
    np.testing.assert_array_equal(a.depths, b.depths)
    np.testing.assert_array_equal(a.mean_abs_error, b.mean_abs_error)
    np.testing.assert_array_equal(
        a.violation_probability, b.violation_probability
    )


def test_same_seed_same_result_within_backend():
    one = run_montecarlo(_config(42, "packed"), num_samples=2000)
    two = run_montecarlo(_config(42, "packed"), num_samples=2000)
    _results_equal(one, two)


def test_backends_bit_identical():
    packed = run_montecarlo(_config(42, "packed"), num_samples=2000)
    for backend in ("wave", "vector"):
        _results_equal(
            packed, run_montecarlo(_config(42, backend), num_samples=2000)
        )


def test_different_seeds_differ():
    a = run_montecarlo(_config(1, "packed"), num_samples=2000)
    b = run_montecarlo(_config(2, "packed"), num_samples=2000)
    assert not np.array_equal(a.mean_abs_error, b.mean_abs_error)


def test_settle_histogram_backend_identical():
    packed = run_settle_histogram(_config(9, "packed"), num_samples=2000)
    wave = run_settle_histogram(_config(9, "wave"), num_samples=2000)
    vector = run_settle_histogram(_config(9, "vector"), num_samples=2000)
    assert packed == wave == vector
    assert abs(sum(packed.values()) - 1.0) < 1e-12


def test_gate_level_sweep_backend_identical():
    rng = np.random.default_rng(5)
    xd = uniform_digit_batch(4, 400, rng)
    yd = uniform_digit_batch(4, 400, rng)
    packed = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=4, backend="packed"
    ).sweep(xd, yd)
    wave = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=4, backend="wave"
    ).sweep(xd, yd)
    np.testing.assert_array_equal(packed.steps, wave.steps)
    np.testing.assert_array_equal(packed.mean_abs_error, wave.mean_abs_error)
    np.testing.assert_array_equal(
        packed.violation_probability, wave.violation_probability
    )
    assert packed.error_free_step == wave.error_free_step
    assert packed.settle_step == wave.settle_step
