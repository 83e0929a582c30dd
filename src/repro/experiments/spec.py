"""Declarative sweep specifications.

A sweep is a study name, a dict of base parameters, and a *grid*: an
ordered mapping of parameter name to the values that axis takes.  The
spec expands into the cartesian product of all grid axes, each point a
frozen :class:`ExperimentPoint` with a stable content hash so results
can be cached and re-identified across runs (see
:mod:`repro.experiments.store`).

Grid axes can also be parsed from CLI strings (``ratio=0.4,0.5,0.6``)
with automatic scalar coercion — see :func:`parse_grid_option`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

#: Scalars allowed as parameter values (must survive a JSON round-trip).
SCALAR_TYPES = (str, int, float, bool, type(None))


def _normalise(value: Any) -> Any:
    """Canonicalise a parameter value for hashing/serialisation."""
    if isinstance(value, SCALAR_TYPES):
        return value
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    raise TypeError(
        f"experiment parameters must be JSON scalars or sequences, "
        f"got {type(value).__name__}: {value!r}"
    )


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def point_key(study: str, params: Mapping[str, Any]) -> str:
    """Stable content hash of one (study, params) design point."""
    blob = canonical_json(
        {"study": study, "params": {k: _normalise(v)
                                    for k, v in params.items()}}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


@dataclass(frozen=True)
class ExperimentPoint:
    """One fully-bound design point of a sweep."""

    study: str
    params: Tuple[Tuple[str, Any], ...]

    @classmethod
    def from_dict(cls, study: str,
                  params: Mapping[str, Any]) -> "ExperimentPoint":
        items = tuple(
            (k, _freeze(v)) for k, v in sorted(params.items())
        )
        return cls(study=study, params=items)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @cached_property
    def key(self) -> str:
        return point_key(self.study, self.as_dict())

    def describe(self, skip: Sequence[str] = ()) -> str:
        """Compact ``k=v`` rendering for tables and logs."""
        return " ".join(
            f"{k}={v}" for k, v in self.params if k not in skip
        )


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass
class SweepSpec:
    """A declarative parameter sweep: base params × grid axes.

    Examples
    --------
    >>> spec = SweepSpec("caches", base={"length": 1000},
    ...                  grid={"ratio": [0.4, 0.5], "ways": [4, 8]})
    >>> len(spec.expand())
    4
    """

    study: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.study:
            raise ValueError("study name must be non-empty")
        for axis, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"grid axis {axis!r} must be a non-empty sequence"
                )

    @property
    def size(self) -> int:
        total = 1
        for values in self.grid.values():
            total *= len(values)
        return total

    def axis_names(self) -> List[str]:
        return list(self.grid)

    def iter_points(self) -> Iterator[ExperimentPoint]:
        axes = list(self.grid.items())
        names = [name for name, __ in axes]
        for combo in itertools.product(*(vals for __, vals in axes)):
            params = dict(self.base)
            params.update(zip(names, combo))
            yield ExperimentPoint.from_dict(self.study, params)

    def expand(self) -> List[ExperimentPoint]:
        """Cartesian-product expansion in deterministic axis order."""
        return list(self.iter_points())

    def payload(self) -> Dict[str, Any]:
        """JSON-ready identity of this spec.

        This exact shape is what gets hashed into manifests and fabric
        journals (:func:`repro.obs.provenance.spec_hash`), so a resumed
        run can prove it is replaying the same sweep.
        """
        return {
            "study": self.study,
            "base": {k: _normalise(v) for k, v in self.base.items()},
            "grid": {axis: [_normalise(v) for v in values]
                     for axis, values in self.grid.items()},
            "size": self.size,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`payload` (modulo the derived ``size``)."""
        return cls(
            study=payload["study"],
            base=dict(payload.get("base", {})),
            grid={axis: list(values)
                  for axis, values in payload.get("grid", {}).items()},
        )


def coerce_scalar(text: str) -> Any:
    """Parse a CLI grid value: int, then float, then bool, else str."""
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


def parse_grid_option(option: str) -> Tuple[str, List[Any]]:
    """Parse one ``--grid key=v1,v2,...`` CLI occurrence."""
    key, sep, raw = option.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ValueError(
            f"malformed grid option {option!r}; expected key=v1,v2"
        )
    values = [coerce_scalar(v.strip()) for v in raw.split(",")
              if v.strip() != ""]
    if not values:
        raise ValueError(f"grid option {option!r} lists no values")
    return key, values
