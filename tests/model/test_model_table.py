"""The process-wide Section-3 model tables.

Every model instance reads chain distributions and violation tails from
two shared, bounded memos (``stage_table``, ``violation_tails``).  These
tests pin what that sharing must not change: every float equals an
uncached evaluation bit for bit, callers cannot poison a shared entry,
and concurrent first use returns what a serial run returns.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest

from repro.core.model import (
    OverclockingErrorModel,
    clear_tables,
    stage_chain_distribution,
    stage_table,
    violation_tails,
)
from repro.core.model.chains import TABLE_MAXSIZE

KAPPAS = (1.0, 1.37)
P_ZEROS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
GEOMETRIES = [
    (n, delta, p_zero)
    for n in list(range(1, 17)) + [32]
    for delta in (1, 2, 3, 4)
    for p_zero in P_ZEROS
]


class UncachedModel:
    """The model's sums as they read before the shared tables: a fresh
    distribution per stage (the memo's ``__wrapped__``) and a fresh tail
    sum per call."""

    def __init__(self, n: int, delta: int, kappa: float, p_zero: Fraction):
        self.ndigits, self.delta = n, delta
        self.magnitude = OverclockingErrorModel(
            n, delta, kappa=kappa, p_zero=p_zero
        ).error_magnitude
        self.taus = range(-delta, n)
        self.dists: List[Dict[int, Fraction]] = [
            dict(stage_table.__wrapped__(tau, n, delta, p_zero))
            for tau in self.taus
        ]

    def _tails(self, b: int) -> List[Fraction]:
        return [
            sum((q for d, q in dist.items() if d > b), Fraction(0))
            for dist in self.dists
        ]

    def violation_probability(self, b: int, independent: bool) -> float:
        p_stage = self._tails(b)
        if independent:
            prod = 1.0
            for p in p_stage:
                prod *= 1.0 - float(p)
            return 1.0 - prod
        return float(min(sum(p_stage, Fraction(0)), Fraction(1)))

    def expected_error(self, b: int) -> float:
        total = 0.0
        for tau, p_violate in zip(self.taus, self._tails(b)):
            if p_violate:
                total += float(p_violate) * self.magnitude(tau, b)
        return total

    def per_delay_curves(self) -> List[Tuple[int, float, float, float]]:
        acc: Dict[int, Tuple[float, float]] = {}
        for tau, dist in zip(self.taus, self.dists):
            for d, q in dist.items():
                if d <= 0:
                    continue
                eps = self.magnitude(tau, d - 1)
                p_prev, e_prev = acc.get(d, (0.0, 0.0))
                acc[d] = (p_prev + float(q), e_prev + float(q) * eps)
        rows = []
        for d in sorted(acc):
            p_d, e_d = acc[d]
            rows.append((d, p_d, e_d / p_d if p_d else 0.0, e_d))
        return rows

    def eq11_expected_error(self, b: int) -> float:
        return sum(e_d for d, _p, _e, e_d in self.per_delay_curves() if d > b)


def _hex_rows(rows) -> List[Tuple]:
    return [(d, p.hex(), e.hex(), pe.hex()) for d, p, e, pe in rows]


def _answers(model) -> List:
    """Every float the model returns, as ``float.hex`` strings."""
    n, delta = model.ndigits, model.delta
    out: List = [_hex_rows(model.per_delay_curves())]
    for b in range(delta, n + delta + 1):
        out.append((
            b,
            model.expected_error(b).hex(),
            model.violation_probability(b, independent=False).hex(),
            model.violation_probability(b, independent=True).hex(),
            float(model.eq11_expected_error(b)).hex(),
        ))
    return out


@pytest.mark.parametrize(
    "n,delta,p_zero", GEOMETRIES,
    ids=[f"N{n}-d{d}-p{p.numerator}_{p.denominator}"
         for n, d, p in GEOMETRIES],
)
def test_bit_identical_to_uncached_evaluation(n, delta, p_zero):
    for kappa in KAPPAS:
        model = OverclockingErrorModel(n, delta, kappa=kappa, p_zero=p_zero)
        reference = UncachedModel(n, delta, kappa, p_zero)
        assert _answers(model) == _answers(reference)


def test_returned_distributions_cannot_poison_the_table():
    model = OverclockingErrorModel(8, kappa=1.37)
    before = _answers(model)
    pristine = stage_chain_distribution(0, 8)

    stage_chain_distribution(0, 8).clear()
    poisoned = model.stage_distribution(2)
    poisoned[1] = Fraction(1)
    poisoned.pop(0)
    violation_tails.cache_clear()  # force tails to re-read stage_table

    assert stage_chain_distribution(0, 8) == pristine
    assert _answers(model) == before
    assert _answers(OverclockingErrorModel(8, kappa=1.37)) == before


def test_concurrent_first_use_matches_serial():
    geometries = [(n, delta) for n in (4, 6, 8, 12, 16) for delta in (2, 3)]

    def evaluate(geometry):
        n, delta = geometry
        return _answers(OverclockingErrorModel(n, delta, kappa=1.37))

    clear_tables()
    serial = [evaluate(g) for g in geometries]

    clear_tables()
    barrier = threading.Barrier(8)

    def worker(offset: int):
        barrier.wait()
        order = geometries[offset:] + geometries[:offset]
        return {g: evaluate(g) for g in order}

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(8)))
    for per_thread in results:
        assert [per_thread[g] for g in geometries] == serial


def test_tables_are_bounded_and_shared():
    assert stage_table.cache_info().maxsize == TABLE_MAXSIZE
    assert violation_tails.cache_info().maxsize == TABLE_MAXSIZE

    OverclockingErrorModel(5).expected_error(5)
    misses = violation_tails.cache_info().misses
    OverclockingErrorModel(5, kappa=2.0).expected_error(5)
    assert violation_tails.cache_info().misses == misses
