"""Propagation-chain statistics for the online multiplier (Eqs. (5)-(8)).

A propagation chain is born when a stage's ``P`` word changes; each stage
crossing shifts the word one digit (the ``P[j+1] = 2*(W - z)`` shift), so
the number of still-changing digits shrinks by one per stage and the chain
annihilates when it reaches a single digit.  The chain's initial length is
the word length of ``P[tau+1]``, which depends on the input digits appended
at stage ``tau`` — the four cases of Eq. (6):

=====  ==========================  ===========  =============================
case   appended digits             probability  resulting ``P[tau+1]`` word
=====  ==========================  ===========  =============================
C1     x = 0, y = 0                1/9          empty — no chain
C2     x != 0, y != 0              4/9          maximal: ``tau + 2*delta + 1``
C3     x != 0, y  = 0              2/9          set by the last nonzero ``y``
C4     x  = 0, y != 0              2/9          set by the last nonzero ``x``
=====  ==========================  ===========  =============================

For C3 the word length of ``Y[tau+1] = Y[tau]`` is governed by the highest
nonzero appended digit: with i.i.d. uniform digits the chance that the last
``k`` appended digits were zero and the one before was not is
``(2/3) * (1/3)**k`` — the recursion in the paper's Section 3.1.  C4 is the
mirror image.  At the very first stage (``tau = -delta``) only C2 generates
a chain because ``X[-delta]`` is empty.

Chains cannot run past the last stage: ``d(tau) <= N - 1 - tau`` (Eq. (7)).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, Optional, Tuple

#: entry bound of each process-wide model table (this module's chain
#: distributions, :mod:`repro.core.model.expectation`'s violation
#: tails).  ``ndigits``/``delta`` arrive from service requests with no
#: upper bound, so an unbounded memo would grow with every new geometry
#: a client names; 1024 entries hold every stage of ~38 geometries of
#: the largest size the synthesizer evaluates (N = 24, delta = 3).
TABLE_MAXSIZE = 1024

#: probabilities of the four input cases under uniform independent digits
CASE_PROBABILITIES = {
    "C1": Fraction(1, 9),
    "C2": Fraction(4, 9),
    "C3": Fraction(2, 9),
    "C4": Fraction(2, 9),
}


def case_probabilities(p_zero: Fraction) -> Dict[str, Fraction]:
    """Input-case probabilities for i.i.d. digits with ``P(digit = 0) =
    p_zero``.

    The paper's Section 4 observes that real image data deviates from the
    uniform-independent assumption — zero digits are more frequent — which
    thins out long chains and widens the online design's headroom.  This
    helper parameterises the model accordingly (``p_zero = 1/3`` recovers
    the uniform case).
    """
    p0 = Fraction(p_zero)
    if not 0 < p0 < 1:
        raise ValueError("p_zero must lie strictly between 0 and 1")
    q = 1 - p0
    return {"C1": p0 * p0, "C2": q * q, "C3": q * p0, "C4": p0 * q}


def stage_chain_distribution(
    tau: int,
    ndigits: int,
    delta: int = 3,
    p_zero: Optional[Fraction] = None,
) -> Dict[int, Fraction]:
    """Distribution of the chain length ``d(tau)`` generated at stage ``tau``.

    Returns a mapping ``length -> probability`` (lengths with zero
    probability omitted; length 0 means "no chain").  Probabilities sum
    to 1.  ``p_zero`` sets the digit sparsity (default: uniform, 1/3).
    The mapping is a fresh copy of the shared :func:`stage_table` entry,
    so callers may mutate it.
    """
    p0 = Fraction(1, 3) if p_zero is None else Fraction(p_zero)
    return dict(stage_table(tau, ndigits, delta, p0))


@functools.lru_cache(maxsize=TABLE_MAXSIZE)
def stage_table(
    tau: int, ndigits: int, delta: int, p_zero: Fraction
) -> Tuple[Tuple[int, Fraction], ...]:
    """Process-wide, read-only form of :func:`stage_chain_distribution`.

    The ``(length, probability)`` pairs in the order the recurrence
    produces them, computed once per ``(tau, ndigits, delta, p_zero)``.
    The model's sums iterate this order, so every float they return is
    the one an uncached evaluation returns.
    """
    if not -delta <= tau <= ndigits - 1:
        raise ValueError(f"stage {tau} outside [-delta, N-1]")
    cases = case_probabilities(p_zero)
    dist: Dict[int, Fraction] = {}

    def add(length: int, prob: Fraction) -> None:
        if prob:
            dist[length] = dist.get(length, Fraction(0)) + prob

    cap = ndigits - 1 - tau  # Eq. (7): cannot propagate past stage N-1

    if not tau + delta + 1 <= ndigits:
        # no digits are appended at this stage (one of the last delta
        # stages): no new chain can be generated here
        add(0, Fraction(1))
        return tuple(dist.items())

    if tau == -delta:
        # P[-delta+1] = 2^(1-delta) * x_1 * Y[-delta+1]: a chain only exists
        # when both first digits are nonzero (case C2)
        p2 = cases["C2"]
        add(min(delta + 1, cap), p2)
        add(0, Fraction(1) - p2)
        return tuple(dist.items())

    # C1: no chain
    add(0, cases["C1"])

    # C2: maximal word length tau + 2*delta + 1
    add(min(tau + 2 * delta + 1, cap), cases["C2"])

    # C3 / C4: the word length follows the highest nonzero earlier digit.
    # Appended digits with indices m = 1 .. tau+delta are i.i.d.; if the
    # last nonzero one is m, the P word length is m + delta.
    for case in ("C3", "C4"):
        p_case = cases[case]
        top = tau + delta  # highest candidate digit index
        for m in range(top, 0, -1):
            k = top - m  # zeros between the appended digit and digit m
            p_m = p_case * (1 - p_zero) * p_zero**k
            add(min(m + delta, cap), p_m)
        # all earlier digits zero: the operand is (so far) zero, P vanishes
        add(0, p_case * p_zero**top)

    total = sum(dist.values())
    assert total == 1, f"stage distribution does not normalise: {total}"
    return tuple(dist.items())


def chain_delay_distribution(
    ndigits: int,
    delta: int = 3,
    p_zero: Optional[Fraction] = None,
) -> Dict[int, Fraction]:
    """Expected number of chains of each length per multiplication.

    ``result[d]`` sums ``P(d(tau) = d)`` over all stages — the per-delay
    chain intensity plotted in the paper's Fig. 5 (because several stages
    can host chains simultaneously, this is an intensity rather than a
    probability; for the rare long chains the two coincide to first order).
    Length 0 (no chain) is excluded.
    """
    out: Dict[int, Fraction] = {}
    for tau in range(-delta, ndigits):
        dist = stage_chain_distribution(tau, ndigits, delta, p_zero)
        for length, prob in dist.items():
            if length > 0:
                out[length] = out.get(length, Fraction(0)) + prob
    return dict(sorted(out.items()))
