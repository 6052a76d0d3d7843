"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_*`` module regenerates one table or figure of the paper and

* prints the regenerated rows (also written to ``benchmarks/results/``,
  except on ``--quick`` smoke runs, whose small batches must not
  overwrite the committed tables),
* exposes a representative kernel to ``pytest-benchmark`` so the suite
  doubles as a performance regression harness.

Expensive experiments (whole-image gate-level sweeps) are computed once
per session and shared across the table benchmarks through
:func:`filter_runs`.

Environment knobs:

``REPRO_BENCH_IMAGE_SIZE``
    Benchmark image edge length (default 48; the paper used 512-class
    images — larger sizes sharpen the statistics but cost simulation time).
``REPRO_BENCH_SAMPLES``
    Monte-Carlo sample count (default 20000).
``REPRO_JOBS`` / ``REPRO_CACHE_DIR``
    Worker processes and persistent result cache for the sharded
    ``run_*`` experiments (see :func:`run_config`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Tuple

from repro.imaging.filters import FilterRun, GaussianFilterDatapath
from repro.imaging.synthetic import benchmark_image
from repro.netlist.delay import FpgaDelay
from repro.runners import RunConfig

#: image inputs of the case study, in the paper's table order
INPUT_NAMES = ("uniform", "lena", "pepper", "sailboat", "tiffany")

#: normalized overclocking factors of Tables 1 and 2
FREQUENCY_FACTORS = (1.05, 1.10, 1.15, 1.20, 1.25)

#: MRE budgets of Table 3 (percent)
ERROR_BUDGETS = (0.01, 0.1, 1.0, 10.0)

IMAGE_SIZE = int(os.environ.get("REPRO_BENCH_IMAGE_SIZE", "48"))
MC_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "20000"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"

_filter_cache: Dict[Tuple[str, str], FilterRun] = {}
_datapath_cache: Dict[str, GaussianFilterDatapath] = {}


def filter_datapath(arithmetic: str) -> GaussianFilterDatapath:
    """Session-cached Gaussian filter datapath (spec-driven spelling)."""
    if arithmetic not in _datapath_cache:
        spec = "online-mult" if arithmetic == "online" else "array-mult"
        _datapath_cache[arithmetic] = GaussianFilterDatapath.from_spec(
            spec, delay_model=FpgaDelay()
        )
    return _datapath_cache[arithmetic]


def filter_runs(image_name: str, arithmetic: str) -> FilterRun:
    """Session-cached overclocking sweep of one (image, design) pair."""
    key = (image_name, arithmetic)
    if key not in _filter_cache:
        image = benchmark_image(image_name, size=IMAGE_SIZE)
        _filter_cache[key] = filter_datapath(arithmetic).apply(image)
    return _filter_cache[key]


def run_config(**overrides) -> RunConfig:
    """Experiment configuration for the benchmark suite.

    ``jobs`` and ``cache_dir`` default from ``REPRO_JOBS`` /
    ``REPRO_CACHE_DIR`` (via the :class:`RunConfig` defaults), so CI can
    parallelize and warm-cache the whole suite without touching every
    benchmark; keyword overrides win.
    """
    return RunConfig(**overrides)


LEDGER_PATH = RESULTS_DIR / "ledger.jsonl"


def emit(name: str, text: str, persist: bool = True) -> None:
    """Print a regenerated table; with *persist*, also write it to results/.

    ``--quick`` smoke runs pass ``persist=False``: they print the table
    and leave the committed full-size one untouched.
    """
    if persist:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def publish(name: str, metrics: Dict[str, float], **meta) -> None:
    """Append one schema-versioned record to the bench-regression ledger.

    Records (git SHA, UTC timestamp, machine fingerprint, the numeric
    *metrics*) accumulate in ``benchmarks/results/ledger.jsonl`` so
    ``benchmarks/check_regression.py`` can gate the newest run of each
    benchmark against its best prior one.  Extra keyword arguments land
    under the record's ``meta`` (sample counts, job counts, knobs).
    """
    from repro.obs.ledger import append_record, make_record

    record = make_record(name, metrics, meta=meta or None)
    append_record(LEDGER_PATH, record)
    summary = "  ".join(
        f"{key}={record['metrics'][key]:.6g}"
        for key in sorted(record["metrics"])
    )
    print(f"[ledger] {name}: {summary} -> {LEDGER_PATH}")
