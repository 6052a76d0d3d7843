"""Unit tests for the digit-selection function (Eq. (2))."""

from fractions import Fraction

import pytest

from repro.core.selection import (
    NUM_INPUT_BITS,
    estimate_quarters,
    residual_in_range,
    select_digit,
    select_from_estimate,
    selection_tables,
)


class TestSelectDigit:
    def test_thresholds(self):
        assert select_digit(Fraction(1, 2)) == 1
        assert select_digit(Fraction(49, 100)) == 0
        assert select_digit(Fraction(-1, 2)) == 0
        assert select_digit(Fraction(-51, 100)) == -1
        assert select_digit(0) == 0
        assert select_digit(Fraction(7, 4)) == 1
        assert select_digit(Fraction(-7, 4)) == -1


class TestEstimate:
    def test_all_zero(self):
        assert estimate_quarters((0,) * NUM_INPUT_BITS) == 0

    def test_weights(self):
        # P_0 = +1 alone: V = 1 -> 4 quarters
        bits = [0] * NUM_INPUT_BITS
        bits[0] = 1
        assert estimate_quarters(tuple(bits)) == 4
        # P_2 = -1 alone: -1 quarter
        bits = [0] * NUM_INPUT_BITS
        bits[5] = 1
        assert estimate_quarters(tuple(bits)) == -1
        # boundary carry g3 adds +1, borrow p3 adds -1
        bits = [0] * NUM_INPUT_BITS
        bits[6] = 1
        assert estimate_quarters(tuple(bits)) == 1
        bits = [0] * NUM_INPUT_BITS
        bits[7] = 1
        assert estimate_quarters(tuple(bits)) == -1

    def test_redundant_pairs_cancel(self):
        bits = [1, 1, 1, 1, 1, 1, 1, 1]
        assert estimate_quarters(tuple(bits)) == 0


class TestSelectFromEstimate:
    def test_consistent_with_eq2(self):
        for vq in range(-7, 8):
            z, _r1, _r2 = select_from_estimate(vq)
            assert z == select_digit(Fraction(vq, 4))

    def test_residual_identity(self):
        """V - z == r1/2 + r2/4 whenever the estimate is reachable."""
        for emit_z in (True, False):
            for vq in range(-9, 10):
                if not residual_in_range(vq, emit_z):
                    continue
                z, r1, r2 = select_from_estimate(vq, emit_z)
                assert 2 * r1 + r2 == vq - 4 * z

    def test_residual_digits_valid(self):
        for vq in range(-15, 16):
            _z, r1, r2 = select_from_estimate(vq)
            assert r1 in (-1, 0, 1)
            assert r2 in (-1, 0, 1)

    def test_no_z_variant(self):
        z, r1, r2 = select_from_estimate(3, emit_z=False)
        assert z == 0
        assert 2 * r1 + r2 == 3

    def test_saturation_out_of_range(self):
        _z, r1, r2 = select_from_estimate(15)
        assert 2 * r1 + r2 == 3  # clamped


class TestResidualRange:
    def test_emitting_range(self):
        assert residual_in_range(7)
        assert residual_in_range(-7)
        assert not residual_in_range(8)

    def test_no_z_range(self):
        assert residual_in_range(3, emit_z=False)
        assert not residual_in_range(4, emit_z=False)


class TestTables:
    def test_sizes_and_keys(self):
        t = selection_tables(True)
        assert sorted(t) == ["r1n", "r1p", "r2n", "r2p", "zn", "zp"]
        assert all(len(v) == 256 for v in t.values())
        t0 = selection_tables(False)
        assert "zp" not in t0

    def test_tables_encode_selection(self):
        t = selection_tables(True)
        for idx in range(256):
            bits = tuple((idx >> k) & 1 for k in range(8))
            vq = estimate_quarters(bits)
            z, r1, r2 = select_from_estimate(vq)
            assert t["zp"][idx] - t["zn"][idx] == z
            assert t["r1p"][idx] - t["r1n"][idx] == r1
            assert t["r2p"][idx] - t["r2n"][idx] == r2

    def test_tables_are_built_once_and_read_only(self):
        for emit_z in (True, False):
            t = selection_tables(emit_z)
            assert selection_tables(emit_z) is t
            with pytest.raises(TypeError):
                t["r1p"] = [0] * 256
            with pytest.raises(TypeError):
                t["r1p"][0] = 1

    def test_shared_tables_keep_the_multiplier_netlist(self):
        from repro.core.online_multiplier import build_online_multiplier
        from repro.netlist.compiled import circuit_fingerprint

        # the fingerprint the per-call tables produced
        assert circuit_fingerprint(build_online_multiplier(8)) == (
            "79428f133ab9845bd17d15a81784e1f8"
        )

    def test_z_never_both_rails(self):
        t = selection_tables(True)
        for idx in range(256):
            assert not (t["zp"][idx] and t["zn"][idx])
