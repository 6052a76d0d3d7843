"""Named demo datapaths shared by the CLI and the evaluation service.

Three small dataflow graphs sized so the synthesizer's assignment ×
wordlength × period search is interesting but cheap:

``prodsum``
    Product-of-products plus sum of two first-level products (4 ops) —
    the mixed-optimal example: the Pareto front typically mixes online
    and traditional multipliers.
``mac``
    Multiply-accumulate with a constant coefficient (3 ops).
``dot3``
    A 3-tap dot product with symmetric coefficients (5 ops).
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.synthesis import Datapath
from repro.synth import DEMO_DATAPATHS


def demo_datapath(name: str, ndigits: int) -> Datapath:
    """Build the named demo :class:`~repro.core.synthesis.Datapath`."""
    dp = Datapath(ndigits=ndigits)
    if name == "prodsum":
        x, y = dp.input("x"), dp.input("y")
        w, v = dp.input("w"), dp.input("v")
        p, q = x * y, w * v
        dp.output("prod", p * q)
        dp.output("sum", p + q)
    elif name == "mac":
        x, y = dp.input("x"), dp.input("y")
        dp.output("mac", x * y + dp.const(Fraction(1, 4)) * x)
    elif name == "dot3":
        taps = [dp.input(f"x{i}") for i in range(3)]
        coeffs = [Fraction(3, 16), Fraction(1, 2), Fraction(3, 16)]
        acc = None
        for tap, coeff in zip(taps, coeffs):
            term = dp.const(coeff) * tap
            acc = term if acc is None else acc + term
        dp.output("dot", acc)
    else:
        raise ValueError(
            f"unknown demo datapath {name!r}; expected one of "
            f"{', '.join(DEMO_DATAPATHS)}"
        )
    return dp
