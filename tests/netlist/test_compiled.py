"""Unit tests of the compiled engine: packing, caching, dispatch, validation."""

import numpy as np
import pytest

from repro.netlist.compiled import (
    CompiledCircuit,
    circuit_fingerprint,
    clear_compile_cache,
    compile_cache_info,
    compile_circuit,
    evaluate_packed,
    make_simulator,
    resolve_backend,
    shared_circuit,
)
from repro.netlist.delay import FpgaDelay, UnitDelay
from repro.netlist.engines import BACKENDS
from repro.netlist.gates import Circuit, Gate
from repro.netlist.packing import (
    lut_packed,
    pack_bits,
    packed_width,
    unpack_bits,
)
from repro.netlist.sim import WaveformSimulator, _eval_gate, evaluate


def _toy_circuit(name="toy"):
    c = Circuit(name)
    a, b, s = c.input("a"), c.input("b"), c.input("s")
    c.output("sum", c.gate("XOR", a, b))
    c.output("pick", c.mux(s, a, b))
    return c


# ------------------------------------------------------------------- packing

@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130, 1000])
def test_pack_unpack_roundtrip(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=n).astype(np.uint8)
    packed = pack_bits(bits)
    assert packed.dtype == np.uint64
    assert packed.shape == (packed_width(n),)
    np.testing.assert_array_equal(unpack_bits(packed, n), bits)


def test_pack_bits_2d_rows():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(4, 70)).astype(np.uint8)
    packed = pack_bits(bits)
    assert packed.shape == (4, packed_width(70))
    np.testing.assert_array_equal(unpack_bits(packed, 70), bits)


def test_lut_packed_table_validation():
    with pytest.raises(ValueError):
        lut_packed((0, 1, 1), [np.zeros(1, dtype=np.uint64)] * 1)
    with pytest.raises(ValueError):
        lut_packed((0, 1), [np.zeros(1, dtype=np.uint64)] * 2)


# ----------------------------------------------------- LUT validation (sim)

def test_eval_gate_rejects_missing_lut_table():
    ins = [np.zeros(4, dtype=np.uint8)]
    with pytest.raises(ValueError, match="missing its truth table"):
        _eval_gate("LUT", ins, None)


def test_eval_gate_rejects_wrong_lut_table_length():
    ins = [np.zeros(4, dtype=np.uint8), np.ones(4, dtype=np.uint8)]
    with pytest.raises(ValueError, match="must have 4 entries"):
        _eval_gate("LUT", ins, (0, 1))
    with pytest.raises(ValueError, match="must have 4 entries"):
        _eval_gate("LUT", ins, (0, 1, 1, 0, 1, 0, 0, 1))


def test_wave_simulator_surfaces_bad_lut_table():
    """A corrupted netlist fails loudly in both engines, not silently."""
    c = Circuit("bad_lut")
    a, b = c.input("a"), c.input("b")
    c.output("o", c.lut((0, 1, 1, 0), a, b))
    idx, gate = next(
        (i, g) for i, g in enumerate(c.gates) if g.op == "LUT"
    )
    c.gates[idx] = Gate(gate.op, gate.inputs, gate.output, (0, 1))
    with pytest.raises(ValueError, match="must have 4 entries"):
        WaveformSimulator(c, UnitDelay()).run({"a": 1, "b": 0})
    with pytest.raises(ValueError, match="LUT table must have 4"):
        CompiledCircuit(c, UnitDelay())


# ------------------------------------------------------------------- results

def test_packed_result_api():
    c = _toy_circuit()
    res = CompiledCircuit(c, UnitDelay()).run({"a": [1, 0, 1], "b": 1, "s": 0})
    assert res.num_samples == 3
    assert sorted(res.output_names) == ["pick", "sum"]
    raw = res.packed_waveform("sum")
    assert raw.dtype == np.uint64
    wf = res.waveform("sum")
    assert wf.dtype == np.uint8 and wf.shape == (res.settle_step + 1, 3)
    assert res.waveform("sum") is wf  # unpack is cached
    np.testing.assert_array_equal(res.final()["sum"], [0, 1, 0])
    np.testing.assert_array_equal(res.final()["pick"], [1, 0, 1])


def test_evaluate_packed_matches_evaluate():
    c = _toy_circuit()
    inputs = {"a": [0, 1, 0, 1], "b": [0, 0, 1, 1], "s": [1, 0, 1, 0]}
    ref = evaluate(c, inputs)
    got = compile_circuit(c).evaluate_packed(inputs)
    module_level = evaluate_packed(c, inputs)
    for name in ref:
        np.testing.assert_array_equal(got[name], ref[name])
        np.testing.assert_array_equal(module_level[name], ref[name])


# --------------------------------------------------------------------- cache

def test_compile_cache_hits_and_lru():
    clear_compile_cache()
    c = _toy_circuit()
    first = compile_circuit(c, UnitDelay())
    again = compile_circuit(c, UnitDelay())
    assert again is first
    info = compile_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    # a different delay assignment is a different engine
    other = compile_circuit(c, FpgaDelay())
    assert other is not first
    assert compile_cache_info()["misses"] == 2
    # structurally identical circuits share the cache entry
    twin = _toy_circuit()
    assert compile_circuit(twin, UnitDelay()) is first
    clear_compile_cache()
    assert compile_cache_info() == {
        "hits": 0, "misses": 0, "size": 0,
        "max_size": compile_cache_info()["max_size"],
    }


# ------------------------------------------------------------- circuit table

class TestSharedCircuit:
    def test_one_build_per_key(self):
        clear_compile_cache()
        calls = []

        def build(name):
            calls.append(name)
            return _toy_circuit(name)

        first = shared_circuit(build, "x")
        assert shared_circuit(build, "x") is first
        assert shared_circuit(build, "y") is not first
        assert calls == ["x", "y"]
        clear_compile_cache()  # empties the table too
        assert shared_circuit(build, "x") is not first
        assert calls == ["x", "y", "x"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.input("extra"),
            lambda c: c.gate("AND", 0, 1),
            lambda c: c.output("extra", 0),
            lambda c: c.const1(),
        ],
        ids=["input", "gate", "output", "const"],
    )
    def test_frozen_circuit_rejects_mutation(self, mutate):
        c = shared_circuit(_toy_circuit, "frozen")
        before = circuit_fingerprint(c)
        with pytest.raises(RuntimeError, match="frozen"):
            mutate(c)
        assert circuit_fingerprint(c) == before

    def test_frozen_circuit_keeps_derived_memos(self):
        from repro.netlist.sta import critical_path

        c = shared_circuit(_toy_circuit, "memo")
        circuit_fingerprint(c)
        assert critical_path(c, UnitDelay())  # sets _gate_pos_cache
        assert c._fingerprint_cache is not None

    def test_builders_still_return_mutable_circuits(self):
        from repro.core.online_multiplier import OnlineMultiplier

        c = OnlineMultiplier(3).build_circuit()
        c.output("extra", c.gate("AND", c.input_nets[0], c.input_nets[1]))


def test_fingerprint_tracks_mutation():
    c = _toy_circuit()
    fp1 = circuit_fingerprint(c)
    assert circuit_fingerprint(c) == fp1  # memoised
    c.output("extra", c.gate("AND", 0, 1))
    assert circuit_fingerprint(c) != fp1
    assert circuit_fingerprint(_toy_circuit()) == fp1


# ------------------------------------------------------------------ dispatch

def test_resolve_backend():
    for name in BACKENDS:
        assert resolve_backend(name) == name
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("quantum")


def test_resolve_backend_rule():
    assert resolve_backend(None, "om-wave") == "vector"
    assert resolve_backend(None, "netlist") == "packed"
    # explicit engines are honoured; vector has no netlist semantics
    assert resolve_backend("wave", "netlist") == "wave"
    assert resolve_backend("packed", "om-wave") == "packed"
    assert resolve_backend("vector", "netlist") == "packed"
    with pytest.raises(ValueError, match="unknown workload"):
        resolve_backend(None, "imaging")


def test_make_simulator_dispatch():
    c = _toy_circuit()
    assert isinstance(make_simulator(c, backend="wave"), WaveformSimulator)
    assert isinstance(make_simulator(c, backend="packed"), CompiledCircuit)
    assert isinstance(make_simulator(c), CompiledCircuit)
    assert isinstance(make_simulator(c, backend="vector"), CompiledCircuit)
    # the old "auto" alias is gone
    with pytest.raises(ValueError, match="unknown backend"):
        make_simulator(c, backend="auto")
    with pytest.raises(ValueError):
        make_simulator(c, backend="nope")


def test_make_simulator_falls_back_on_compile_failure(monkeypatch):
    import repro.netlist.compiled as mod

    def boom(circuit, delay_model=None):
        raise RuntimeError("compile exploded")

    monkeypatch.setattr(mod, "compile_circuit", boom)
    sim = mod.make_simulator(_toy_circuit(), backend="packed")
    assert isinstance(sim, WaveformSimulator)


def test_levelization_exposed():
    c = _toy_circuit()
    compiled = CompiledCircuit(c, UnitDelay())
    assert compiled.num_levels >= 1
    assert compiled.settle_step == max(compiled.arrival)
