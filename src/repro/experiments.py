"""The request kinds ``repro serve`` answers, each declared once.

The three kinds are the paper's own experiments: ``montecarlo`` (the
Monte-Carlo error curve against the Section-3 model, Fig. 4), ``sweep``
(the stage-delay latency-accuracy sweep) and ``synthesis`` (the
titular datapath synthesis).  Each :class:`Experiment` in
:data:`EXPERIMENTS` declares its parameters (:class:`Param`: type,
bounds, choices, help and a default per surface), its grid axis, its
key-component builder and its entry-point call.  The ``model``/
``sweep``/``synth`` subparsers of :mod:`repro.cli` are generated from
it; the wire parser, the fused-group merge and the daemon's evaluator
(:mod:`repro.service`) read it; and both surfaces normalize through
:func:`normalize`, so the same arguments give the same key on each.

Numpy-free: the parser builds from this module without loading the
simulation stack; the per-kind functions import it when called.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.netlist.engines import BACKENDS
from repro.synth import DEMO_DATAPATHS, check_wordlength

__all__ = [
    "BASE", "EXPERIMENTS", "Experiment", "Param", "RequestError",
    "WIRE_ONLY", "normalize",
]

#: the parameters that are :class:`~repro.runners.RunConfig` fields
CONFIG_FIELDS = ("ndigits", "delta", "seed", "backend")

#: ``cli`` default of a parameter that has no command-line flag
WIRE_ONLY = object()
#: ``serve`` default of a RunConfig field: the daemon's own value (its
#: ``--ndigits``/``--seed``, else the RunConfig default)
BASE = object()


class RequestError(ValueError):
    """A request failed validation; the message is client-facing.

    *param* names the parameter at fault, when one is; the message is
    then ``"<param> <reason>"``, and the CLI reports it as
    ``argument --<param>: <reason>``.
    """

    def __init__(self, reason: str, param: Optional[str] = None) -> None:
        super().__init__(f"{param} {reason}" if param else reason)
        self.param = param
        self.reason = reason


class Param(namedtuple(
    "Param", "name type lo choices many help metavar cli serve",
    defaults=(None, None, False, None, None, WIRE_ONLY, None),
)):
    """One request parameter, with a default per surface.

    ``type`` is ``int``, ``float`` or ``str``.  An int is at least
    ``lo``; a float with ``lo`` set must be finite and greater than
    ``lo``; a str is one of ``choices``; an unset ``lo`` is no bound.
    ``many`` makes the value a non-empty list of those.  ``cli`` is the
    default of the generated ``--flag`` (:data:`WIRE_ONLY`: no flag) and
    ``serve`` that of a wire request omitting the parameter.
    """

    __slots__ = ()

    def check_one(self, value: Any) -> Any:
        """One validated scalar; ``ValueError`` says why it is not."""
        if self.type is str:
            if value not in self.choices:
                raise ValueError(
                    f"must be one of {', '.join(self.choices)}, got {value!r}"
                )
            return value
        if self.type is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"must be an integer, got {value!r}")
            if self.lo is not None and value < self.lo:
                raise ValueError(f"must be >= {self.lo}, got {value}")
            return value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.copysign(math.inf, value)
        if self.lo is not None and not self.lo < value < math.inf:
            raise ValueError(
                f"must be a finite number > {self.lo:g}, got {value}"
            )
        return value

    def check(self, value: Any) -> Any:
        """*value* validated: a scalar, or a tuple when ``many``."""
        if not self.many:
            return self.check_one(value)
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"must be a non-empty list, got {value!r}")
        try:
            return tuple(self.check_one(v) for v in value)
        except ValueError as exc:
            raise ValueError(f"entries {exc}") from None


#: One request kind.  *prepare* ``(config, values) -> params`` applies
#: the kind's cross-parameter rules and fills its grid; *components*
#: ``(config, params)`` is the key-component builder and *run*
#: ``(config, params, runner=None)`` the entry-point call.  *axis* is
#: the grid parameter a fused evaluation unions (None: never fused),
#: *exclusive* the parameters of which a request gives at most one.
Experiment = namedtuple(
    "Experiment",
    "params prepare components run axis exclusive",
    defaults=(None, ()),
)


# ------------------------------------------------------ shared parameters

NDIGITS = Param("ndigits", int, 1, cli=8, serve=BASE)
DELTA = Param("delta", int, 1, serve=BASE)
SEED = Param("seed", int, 0, cli=2014, serve=BASE)
BACKEND = Param(
    "backend", str, choices=BACKENDS, serve=BASE,
    help="simulation engine (default: chosen per workload — vector for "
         "OM-wave runs, packed for gate-level netlists): compiled "
         "bit-packed, interpreting waveform, or vector (digit-level "
         "behavioral; netlist runs use packed)",
)
SAMPLES = Param("samples", int, 1, serve=4000)
PERIODS = Param("periods", float, 0, many=True, metavar="P")
#: the request envelope's optional wall-clock budget in seconds: the
#: wire's ``deadline`` field and ``repro serve --deadline`` check it alike
DEADLINE = Param("deadline", float, 0, cli=None,
                 help="default per-request deadline in seconds")


# ------------------------------------------------------------ montecarlo

def _montecarlo_prepare(config, values):
    from repro.sim.montecarlo import default_depths

    depths = values["depths"] or default_depths(config.ndigits, config.delta)
    return {"samples": values["samples"], "depths": tuple(sorted(depths))}


def _montecarlo_components(config, params):
    from repro.sim.montecarlo import montecarlo_key_components

    return montecarlo_key_components(
        config, params["samples"], list(params["depths"])
    )


def _montecarlo_run(config, params, runner=None):
    from repro.sim.montecarlo import run_montecarlo

    return run_montecarlo(
        config, params["samples"], list(params["depths"]), runner
    )


# ----------------------------------------------------------------- sweep

def _sweep_prepare(config, values):
    from repro.sim.sweep import stage_sweep_plan

    _, grid = stage_sweep_plan(config, values["periods"], values["steps"])
    return {"samples": values["samples"], "steps": tuple(grid)}


def _sweep_components(config, params):
    from repro.sim.sweep import stage_sweep_key_components

    return stage_sweep_key_components(
        config, "online", params["samples"], params["steps"]
    )


def _sweep_run(config, params, runner=None):
    from repro.sim.sweep import run_sweep

    return run_sweep(
        config, "online", params["samples"], runner=runner, timing="stage",
        steps=list(params["steps"]),
    )


# ------------------------------------------------------------- synthesis

def _synthesis_prepare(config, values):
    from repro.synth.search import AccuracyTarget

    metric = "mre" if values["target_snr"] is None else "snr"
    try:
        target = AccuracyTarget(metric, values[f"target_{metric}"])
    except ValueError as exc:
        raise RequestError(str(exc)) from None
    # reject an unsynthesizable word length before it takes evaluator
    # time; without wordlengths, ndigits is the one searched
    wordlengths = values["wordlengths"]
    for n in wordlengths or (config.ndigits,):
        try:
            check_wordlength(n)
        except ValueError as exc:
            if wordlengths:
                raise RequestError(f"entries {exc}", "wordlengths") from None
            raise RequestError(str(exc), "ndigits") from None
    return {
        "samples": values["samples"],
        "datapath": values["datapath"],
        "target_metric": target.metric,
        "target_value": target.value,
        "wordlengths": wordlengths,
        "periods": values["periods"],
    }


def _synthesis_components(config, params):
    from repro.synth.demos import demo_datapath
    from repro.synth.search import depth_grids, synthesis_key_components

    return synthesis_key_components(
        config,
        demo_datapath(params["datapath"], config.ndigits).to_graph(),
        {"metric": params["target_metric"], "value": params["target_value"]},
        depth_grids(config, params["wordlengths"], params["periods"]),
        params["samples"],
    )


def _synthesis_run(config, params, runner=None):
    from repro.synth.demos import demo_datapath
    from repro.synth.search import run_synthesis

    return run_synthesis(
        config,
        demo_datapath(params["datapath"], config.ndigits),
        {"metric": params["target_metric"], "value": params["target_value"]},
        wordlengths=params["wordlengths"],
        periods=params["periods"],
        num_samples=params["samples"],
        runner=runner,
    )


#: every request kind, in wire/display order
EXPERIMENTS: Dict[str, Experiment] = {
    "montecarlo": Experiment(
        (NDIGITS, SAMPLES._replace(cli=20000), SEED, DELTA, BACKEND,
         Param("depths", int, 0, many=True)),
        _montecarlo_prepare, _montecarlo_components, _montecarlo_run,
        axis="depths",
    ),
    "sweep": Experiment(
        (NDIGITS, SAMPLES._replace(cli=20000), SEED,
         PERIODS._replace(
             cli=None,
             help="normalized clock periods (fractions of the structural "
                  "delay); default sweeps every chain-cut depth "
                  "0 .. N+delta",
         ),
         DELTA, BACKEND, Param("steps", int, 0, many=True)),
        _sweep_prepare, _sweep_components, _sweep_run,
        axis="steps", exclusive=("periods", "steps"),
    ),
    "synthesis": Experiment(
        (Param("datapath", str, choices=DEMO_DATAPATHS,
               cli="prodsum", serve="prodsum",
               help="demo dataflow graph: product-of-products + sum (4 "
                    "ops, mixed-optimal), multiply-accumulate (3 ops), or "
                    "a 3-tap dot product (5 ops)"),
         NDIGITS._replace(cli=6),
         Param("wordlengths", int, 1, many=True, metavar="N",
               cli=None,
               help="word lengths to search (default: just --ndigits)"),
         Param("target_mre", float, cli=5.0, serve=5.0,
               help="accuracy bound: mean relative error in percent "
                    "(the 6-digit quantization floor is ~1.2%%)"),
         Param("target_snr", float, cli=None,
               help="accuracy bound: SNR in dB (instead of --target-mre)"),
         PERIODS._replace(
             cli=None,
             help="clock periods as fractions of the online settle depth "
                  "(default: the repro.synth.DEFAULT_PERIODS grid)",
         ),
         SAMPLES._replace(cli=4000), SEED, DELTA, BACKEND),
        _synthesis_prepare, _synthesis_components, _synthesis_run,
        exclusive=("target_mre", "target_snr"),
    ),
}


def normalize(
    kind: str,
    values: Mapping[str, Any],
    base: Any,
    surface: str = "serve",
) -> Tuple[Any, Dict[str, Any], Dict[str, Any]]:
    """One request of *kind*: ``(config, params, key components)``.

    *values* holds the parameters the caller gave (names absent from it
    take their *surface* default, ``"cli"`` or ``"serve"``); the RunConfig
    fields among them override *base*.  Raises :class:`RequestError` on
    any rejected value.
    """
    exp = EXPERIMENTS[kind]
    given = [name for name in exp.exclusive if name in values]
    if len(given) > 1:
        raise RequestError(f"pass either {' or '.join(given)}, not both")
    filled: Dict[str, Any] = {}
    overrides: Dict[str, Any] = {}
    for param in exp.params:
        if param.name in values:
            try:
                value = param.check(values[param.name])
            except ValueError as exc:
                raise RequestError(str(exc), param.name) from None
        else:
            value = getattr(param, surface)
            if value is WIRE_ONLY:  # the CLI omits a wire-only parameter
                value = param.serve
            if value is BASE:
                continue
        target = overrides if param.name in CONFIG_FIELDS else filled
        target[param.name] = value
    try:
        config = base.with_(**overrides) if overrides else base
        params = exp.prepare(config, filled)
    except RequestError:
        raise
    except ValueError as exc:
        raise RequestError(str(exc)) from None
    return config, params, exp.components(config, params)
