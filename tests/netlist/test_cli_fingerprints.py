"""The gate-level CLI ops build exactly the pinned netlists.

Every circuit the ``multiplier``, ``faults`` and ``filter`` commands
read comes from :func:`~repro.netlist.compiled.shared_circuit`, which
freezes it once built.  Their structural fingerprints are pinned here,
so a change to the builders, the constant folding or the ``Gate``
record that alters any netlist shows up as a diff of names, sizes and
hashes.  The sample counts and image size only shorten the runs: the
netlists depend on neither.
"""

import pytest

from repro.cli import main
from repro.netlist.compiled import circuit_fingerprint, clear_compile_cache
from repro.netlist.gates import Circuit

MULTIPLIERS = [
    ("online_mult8", 1013, "79428f133ab9845bd17d15a81784e1f8"),
    ("bwmul9", 370, "11ebf5f503faabdeb890dbddaec4c6ed"),
]

PINNED = {
    "multiplier": (["multiplier", "--samples", "64"], MULTIPLIERS),
    "faults": (["faults", "--samples", "64"], MULTIPLIERS),
    "filter": (
        ["filter", "--image", "lena", "--size", "16"],
        [
            ("conv_trad8_64", 1461, "1c7c59eca7aba988706b3d668016212b"),
            ("conv_online8_64", 3543, "667f3000076fa7da70ccbee1fc47d584"),
        ],
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_shared_circuits_match_pinned_fingerprints(
    command, monkeypatch, tmp_path, capsys
):
    argv, expected = PINNED[command]
    built = []
    freeze = Circuit.freeze

    def recording_freeze(self):
        built.append((self.name, self.num_gates, circuit_fingerprint(self)))
        return freeze(self)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Circuit, "freeze", recording_freeze)
    clear_compile_cache()
    try:
        assert main([*argv, "--no-cache"]) == 0
    finally:
        clear_compile_cache()
    capsys.readouterr()
    assert built == expected
