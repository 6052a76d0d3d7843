"""Tests for the constant-propagation pass in Circuit.gate."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.gates import Circuit, lut_cofactor
from repro.netlist.sim import evaluate


def _logic_gate_count(c: Circuit) -> int:
    """LUT-class gates only: constants and inverters map for free, and
    folding may legally trade one MUX for NOT + OR."""
    return sum(
        1 for g in c.gates if g.op not in ("CONST0", "CONST1", "NOT", "BUF")
    )


class TestBasicFolds:
    def test_const_nets_cached(self):
        c = Circuit()
        assert c.const0() == c.const0()
        assert c.const1() == c.const1()

    def test_and_absorbs(self):
        c = Circuit()
        a = c.input("a")
        assert c.and_(a, c.const0()) == c.const0()
        assert c.and_(a, c.const1()) == a
        assert _logic_gate_count(c) == 0

    def test_or_absorbs(self):
        c = Circuit()
        a = c.input("a")
        assert c.or_(a, c.const1()) == c.const1()
        assert c.or_(a, c.const0()) == a

    def test_xor_parity(self):
        c = Circuit()
        a = c.input("a")
        out = c.xor(a, c.const1())  # NOT a
        c.output("y", out)
        got = evaluate(c, {"a": [0, 1]})["y"]
        assert got.tolist() == [1, 0]

    def test_xor_duplicate_cancels(self):
        c = Circuit()
        a = c.input("a")
        assert c.xor(a, a) == c.const0()

    def test_and_duplicate_dedupes(self):
        c = Circuit()
        a = c.input("a")
        assert c.and_(a, a) == a

    def test_nand_nor(self):
        c = Circuit()
        a = c.input("a")
        assert c.gate("NAND", a, c.const0()) == c.const1()
        assert c.gate("NOR", a, c.const1()) == c.const0()
        # single live input -> inverter
        y = c.gate("NAND", a, c.const1())
        c.output("y", y)
        assert evaluate(c, {"a": [0, 1]})["y"].tolist() == [1, 0]

    def test_not_of_const(self):
        c = Circuit()
        assert c.not_(c.const0()) == c.const1()

    def test_maj_folds(self):
        c = Circuit()
        a, b = c.input("a"), c.input("b")
        assert c.gate("MAJ", a, c.const1(), c.const1()) == c.const1()
        assert c.gate("MAJ", a, c.const0(), c.const0()) == c.const0()
        assert c.gate("MAJ", a, c.const0(), c.const1()) == a
        # one const -> AND / OR
        y_and = c.gate("MAJ", a, b, c.const0())
        y_or = c.gate("MAJ", a, b, c.const1())
        c.output("and", y_and)
        c.output("or", y_or)
        out = evaluate(c, {"a": [0, 1, 1], "b": [1, 0, 1]})
        assert out["and"].tolist() == [0, 0, 1]
        assert out["or"].tolist() == [1, 1, 1]

    def test_mux_folds(self):
        c = Circuit()
        a, b, s = c.input("a"), c.input("b"), c.input("s")
        assert c.mux(c.const0(), a, b) == a
        assert c.mux(c.const1(), a, b) == b
        assert c.mux(s, c.const0(), c.const1()) == s
        y = c.mux(s, c.const1(), c.const0())  # NOT s
        c.output("nots", y)
        y2 = c.mux(s, c.const0(), b)  # s & b
        c.output("sandb", y2)
        out = evaluate(c, {"a": 0, "b": [1, 1, 0], "s": [0, 1, 1]})
        assert out["nots"].tolist() == [1, 0, 0]
        assert out["sandb"].tolist() == [0, 1, 0]

    def test_lut_shrinks(self):
        c = Circuit()
        a = c.input("a")
        # 2-input AND with b tied to 1 -> wire to a
        assert c.lut([0, 0, 0, 1], a, c.const1()) == a
        # 2-input AND with b tied to 0 -> const 0
        assert c.lut([0, 0, 0, 1], a, c.const0()) == c.const0()

    def test_lut_cofactor_matches_direct_lookup(self):
        rng = random.Random(7)
        for fanin in range(1, 5):
            for _ in range(20):
                table = tuple(rng.randint(0, 1) for _ in range(2 ** fanin))
                fixed = tuple(rng.choice((None, 0, 1)) for _ in range(fanin))
                live = [k for k, v in enumerate(fixed) if v is None]
                sub = lut_cofactor(table, fixed)
                assert len(sub) == 2 ** len(live)
                for m, value in enumerate(sub):
                    bits = list(fixed)
                    for j, k in enumerate(live):
                        bits[k] = (m >> j) & 1
                    idx = sum(b << k for k, b in enumerate(bits))
                    assert value == table[idx]

    def test_buf_is_wire(self):
        c = Circuit()
        a = c.input("a")
        assert c.gate("BUF", a) == a

    def test_folding_disabled(self):
        c = Circuit(fold_constants=False)
        a = c.input("a")
        out = c.and_(a, c.const1())
        assert out != a  # a real gate was emitted
        c.output("y", out)
        assert evaluate(c, {"a": [0, 1]})["y"].tolist() == [0, 1]


class TestFoldingEquivalence:
    """Folded and unfolded builds of random circuits must agree."""

    OPS = ["AND", "OR", "XOR", "NAND", "NOR", "XNOR", "MAJ", "MUX", "NOT"]

    def _build(self, circuit, recipe, n_inputs):
        nets = [circuit.input(f"i{k}") for k in range(n_inputs)]
        pool = list(nets) + [circuit.const0(), circuit.const1()]
        for op, picks in recipe:
            if op == "NOT":
                net = circuit.gate("NOT", pool[picks[0] % len(pool)])
            elif op in ("MAJ", "MUX"):
                net = circuit.gate(op, *(pool[p % len(pool)] for p in picks[:3]))
            else:
                net = circuit.gate(op, *(pool[p % len(pool)] for p in picks[:2]))
            pool.append(net)
        circuit.output("y", pool[-1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.lists(st.integers(0, 40), min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=25,
        ),
        st.integers(2, 4),
    )
    def test_random_circuits(self, recipe, n_inputs):
        folded = Circuit(fold_constants=True)
        plain = Circuit(fold_constants=False)
        self._build(folded, recipe, n_inputs)
        self._build(plain, recipe, n_inputs)
        vectors = {
            f"i{k}": np.array(
                [(pattern >> k) & 1 for pattern in range(2**n_inputs)],
                dtype=np.uint8,
            )
            for k in range(n_inputs)
        }
        out_f = evaluate(folded, vectors)["y"]
        out_p = evaluate(plain, vectors)["y"]
        assert np.array_equal(out_f, out_p)
        assert _logic_gate_count(folded) <= _logic_gate_count(plain)


class TestFoldingOnOperators:
    def test_multiplier_by_zero_collapses(self):
        from repro.arith.array_multiplier import array_multiplier

        c = Circuit()
        a = c.inputs(6, "a")
        zero = c.const0()
        product = array_multiplier(c, a, [zero] * 6)
        for net in product:
            assert net == c.const0()

    def test_multiplier_by_constant_shrinks(self):
        from repro.arith.array_multiplier import array_multiplier

        full = Circuit()
        a = full.inputs(8, "a")
        b = full.inputs(8, "b")
        array_multiplier(full, a, b)

        folded = Circuit()
        a2 = folded.inputs(8, "a")
        one = folded.const1()
        zero = folded.const0()
        # multiply by 0b00000110 (= 6)
        const_bits = [zero, one, one, zero, zero, zero, zero, zero]
        array_multiplier(folded, a2, const_bits)
        assert _logic_gate_count(folded) < 0.5 * _logic_gate_count(full)

    def test_constant_multiply_correct(self):
        from repro.arith.array_multiplier import array_multiplier

        c = Circuit()
        a_bits = c.inputs(5, "a")
        one, zero = c.const1(), c.const0()
        const_bits = [one, one, zero, zero, zero]  # multiply by 3
        product = array_multiplier(c, a_bits, const_bits)
        for i, net in enumerate(product):
            c.output(f"p{i}", net)
        values = np.arange(-16, 16)
        raw = values % 32
        ins = {f"a{i}": ((raw >> i) & 1).astype(np.uint8) for i in range(5)}
        out = evaluate(c, ins)
        got = sum(out[f"p{i}"].astype(np.int64) << i for i in range(10))
        got = np.where(got >= 512, got - 1024, got)
        assert np.array_equal(got, values * 3)
