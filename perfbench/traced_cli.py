"""Run ``repro.cli.main(argv)`` with the per-layer clocks installed.

    python3 perfbench/traced_cli.py SPAWN_T STATS_JSON <repro CLI args...>

*SPAWN_T* is the parent's ``time.time()`` just before it spawned this
process (the origin of ``cli.start``).  When the command returns (for
``serve``: after its SIGTERM drain) the layer totals and the process's
metric counters are written to *STATS_JSON*, and the process exits with
the command's status.
"""

import json
import sys

import layers


def main(argv):
    spawn_t, stats_path, command = float(argv[0]), argv[1], argv[2:]
    clock = layers.install(spawn_t)
    from repro.cli import main as cli_main
    from repro.obs.metrics import metrics

    try:
        return cli_main(command)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(
                {
                    "layers": clock.snapshot(),
                    "counters": metrics().snapshot().get("counters", {}),
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
