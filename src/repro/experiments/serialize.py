"""One JSON codec for every experiment result dataclass.

:func:`to_payload` turns a result into plain JSON-compatible data and
:func:`from_payload` rebuilds it; both are driven by the dataclass's
fields and type hints, so no result class writes its own pair.  The
contract is *render fidelity*: for any registered result ``r``,
``render(from_payload(type(r), to_payload(r)))`` is byte-identical to
``render(r)`` -- which is what lets the registry serve cached results
and ``--json-out`` files interchangeably with live runs.

The codec supports exactly the hints registered results use:

* ``str``/``int``/``float``/``bool``: coerced to the hint on the way out
  (a numpy scalar becomes a plain number), type-checked on the way in;
* ``np.ndarray``: a list of floats out, a ``float64`` array in;
* ``List[X]``, and ``Dict[str, X]``/``Dict[int, X]`` (int keys travel as
  strings, as JSON requires);
* nested dataclasses: an object whose keys follow the field order, so
  reordering a result's fields changes its JSON bytes.

Any other hint raises :class:`TypeError` the first time its class is
encoded or decoded.  Python's JSON encoder round-trips finite floats
exactly (shortest repr), so numbers need no special encoding.  Data that
does not fit its hint raises :class:`TypeError` (a missing field raises
``KeyError``, a malformed number ``ValueError``), which
:func:`repro.experiments.registry.execute` treats as a corrupt stored
result and recomputes.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Callable, Tuple

import numpy as np

__all__ = ["from_payload", "to_payload"]

#: The JSON types each scalar hint accepts on the way in.
_SCALARS = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def _expect(data, *kinds):
    if not isinstance(data, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(
            f"result payload holds {type(data).__name__} where {names} "
            "is expected"
        )
    return data


@functools.lru_cache(maxsize=None)
def _codec(hint) -> Tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """``(encode, decode)`` for one supported type hint, built once."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        enc, dec = _codec(args[0])
        return (
            lambda value: [enc(v) for v in value],
            lambda data: [dec(v) for v in _expect(data, list)],
        )
    if origin is dict and args[0] in (str, int):
        key = args[0]
        enc, dec = _codec(args[1])
        return (
            lambda value: {str(k): enc(v) for k, v in value.items()},
            lambda data: {
                key(k): dec(v) for k, v in _expect(data, dict).items()
            },
        )
    if hint is np.ndarray:
        return (
            lambda value: [float(v) for v in value],
            lambda data: np.asarray(_expect(data, list), dtype=np.float64),
        )
    if hint in _SCALARS:
        return hint, lambda data: hint(_expect(data, *_SCALARS[hint]))
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = [
            (f.name,) + _codec(hints[f.name]) for f in dataclasses.fields(hint)
        ]

        def decode(data):
            data = _expect(data, dict)
            return hint(**{name: dec(data[name]) for name, _, dec in fields})

        return (
            lambda value: {
                name: enc(getattr(value, name)) for name, enc, _ in fields
            },
            decode,
        )
    raise TypeError(f"the result codec does not support type hint {hint!r}")


def to_payload(result) -> dict:
    """A dataclass result as JSON-compatible data, keys in field order."""
    return _codec(type(result))[0](result)


def from_payload(cls: type, data):
    """Rebuild a ``cls`` instance from :func:`to_payload` output."""
    return _codec(cls)[1](data)
