"""The common ``Result`` protocol and its one serialization codec.

Every experiment result — :class:`repro.sim.montecarlo.MonteCarloResult`,
:class:`repro.sim.sweep.SweepResult`, :class:`repro.sim.error_profile.\
DigitErrorProfile`, :class:`repro.obs.probe.StageProbeResult`,
:class:`repro.faults.campaign.FaultCampaignResult`,
:class:`repro.imaging.filters.FilterStudyResult` and
:class:`repro.synth.report.SynthesisReport` — is a dataclass that
declares its shape once:

* a class-level ``kind`` string naming the result type,
* its dataclass fields, whose annotations say how scalars are coerced,
* a class-level ``_array_fields`` mapping ``field name -> dtype string``
  — the dtype of every numpy array field, written as a (nested) JSON
  list and rebuilt at that dtype on decode.

:func:`register_result` reads that declaration once and installs the
two methods of the protocol:

* ``to_dict()`` — a pure-JSON dict: ``"kind"``, then every field in
  declaration order (arrays as nested lists at their declared dtype;
  ``int``/``float``/``str`` fields and lists of them coerced by their
  annotation; anything else through :func:`jsonable`), then a
  ``"metrics"`` entry when a snapshot is attached;
* ``from_dict(data)`` — the inverse: arrays rebuilt at their declared
  dtypes, scalars coerced the same way, and a missing key filled from
  the field's default (so payloads written before a field existed still
  load).

``json.loads(json.dumps(r.to_dict()))`` then ``from_dict`` must
reconstruct the result bit-exactly (Python's float repr round-trips
IEEE-754 doubles, ``inf``, ``-0.0`` and subnormals included; a NaN
comes back as the canonical quiet NaN), which is what lets the
persistent cache — one JSON file of this payload per entry — serve
results that are indistinguishable from freshly computed ones.
:func:`result_from_dict` dispatches a loaded dict back to the right
class via its ``"kind"`` entry.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np


@runtime_checkable
class Result(Protocol):
    """Structural protocol shared by every cacheable experiment result."""

    kind: ClassVar[str]

    def to_dict(self) -> Dict[str, Any]:
        """Pure-JSON representation, including the ``"kind"`` tag."""
        ...  # pragma: no cover

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Result":
        """Rebuild an instance from :meth:`to_dict` output."""
        ...  # pragma: no cover


#: kind string -> result class
_REGISTRY: Dict[str, type] = {}

#: scalar annotations coerced on both directions of the codec
_SCALARS = (int, float, str)


def _field_codec(
    annotation: Any, dtype: Optional[str]
) -> Tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """``(encode, decode)`` of one field, from its dtype or annotation."""
    if dtype is not None:
        dt = np.dtype(dtype)
        return (
            lambda v: np.asarray(v, dtype=dt).tolist(),
            lambda v: np.asarray(v, dtype=dt),
        )
    if annotation in _SCALARS:
        return annotation, annotation
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is list and args and args[0] in _SCALARS:
        item = args[0]
        coerce = lambda v: [item(x) for x in v]  # noqa: E731
        return coerce, coerce
    return jsonable, lambda v: v


def _install_codec(cls: type, kind: str) -> None:
    """Resolve *cls*'s field plan once and attach ``to_dict``/``from_dict``."""
    hints = typing.get_type_hints(cls)
    arrays = getattr(cls, "_array_fields", {})
    encoders: List[Tuple[str, Callable[[Any], Any]]] = []
    decoders: List[Tuple[str, Callable[[Any], Any], Optional[Callable]]] = []
    for f in dataclasses.fields(cls):
        encode, decode = _field_codec(hints[f.name], arrays.get(f.name))
        if f.default is not dataclasses.MISSING:
            default: Optional[Callable] = lambda v=f.default: v  # noqa: E731
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory
        else:
            default = None
        encoders.append((f.name, encode))
        decoders.append((f.name, decode, default))

    def to_dict(self) -> Dict[str, Any]:
        """Pure-JSON representation (see :mod:`repro.runners.results`)."""
        data: Dict[str, Any] = {"kind": kind}
        for name, encode in encoders:
            data[name] = encode(getattr(self, name))
        snapshot = getattr(self, "metrics", None)
        if snapshot is not None:
            data["metrics"] = jsonable(snapshot)
        return data

    def from_dict(klass, data: Mapping[str, Any]) -> Any:
        """Rebuild an instance from :meth:`to_dict` output."""
        kwargs = {}
        for name, decode, default in decoders:
            if name in data:
                kwargs[name] = decode(data[name])
            elif default is None:
                raise KeyError(name)
            else:
                kwargs[name] = default()
        result = klass(**kwargs)
        snapshot = data.get("metrics")
        if snapshot is not None:
            result.metrics = dict(snapshot)
        return result

    cls.to_dict = to_dict
    cls.from_dict = classmethod(from_dict)


def register_result(cls: type) -> type:
    """Class decorator: give dataclass *cls* the codec, register its ``kind``."""
    kind = getattr(cls, "kind", None)
    if not isinstance(kind, str) or not kind:
        raise TypeError(f"{cls.__name__} must define a class-level 'kind' string")
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} must be a dataclass to register")
    _install_codec(cls, kind)
    _REGISTRY[kind] = cls
    return cls


def registered_kinds() -> Dict[str, type]:
    """A snapshot of the kind -> class registry."""
    return dict(_REGISTRY)


def result_from_dict(data: Mapping[str, Any]) -> Any:
    """Rebuild any registered result from its ``to_dict`` form."""
    kind = data.get("kind")
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise KeyError(
            f"unknown result kind {kind!r}; registered: {sorted(_REGISTRY)}"
        )
    return cls.from_dict(data)


def attach_metrics(result: Any, snapshot: Any = None) -> Any:
    """Attach the deterministic metrics snapshot to *result*.

    Entry points call this when a run finishes; the snapshot (counters
    and histograms only — timing-derived gauges are excluded, see
    :func:`repro.obs.metrics.deterministic_snapshot`) then rides along
    as the last entry of ``to_dict()``.  The on-disk cache strips it
    before storage, so persisted payloads never vary with execution
    conditions.
    """
    from repro.obs.metrics import deterministic_snapshot

    result.metrics = deterministic_snapshot(snapshot)
    return result


def jsonable(value: Any) -> Any:
    """Recursively convert numpy arrays/scalars to plain JSON values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value
