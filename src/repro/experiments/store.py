"""Result records, and the read-only flat JSONL store format.

A :class:`StoredResult` is one design point's outcome; every store
keeps it as one canonical-JSON line::

    {"key": "...", "study": "caches", "params": {...},
     "metrics": {...}, "elapsed": 0.12, "created": 1690000000.0}

Sweeps write to the sharded, indexed store in
:mod:`repro.fabric.store` (default directory:
``benchmarks/results/fabric``).  :class:`ResultStore` only *reads* the
older flat format — a single ``store.jsonl`` of such lines — so that
``repro store migrate`` (and a sharded store opened over a directory
holding one) can import it.  ``load`` keeps the *last* record per key;
it skips (and warns about) a torn final line but treats invalid bytes
anywhere else as real corruption and raises.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.experiments.spec import ExperimentPoint, canonical_json


def default_store_dir() -> str:
    """``benchmarks/results/fabric`` anchored at the repo root.

    Falls back to the current working directory when the package is
    installed outside a checkout (no ``benchmarks/`` sibling).
    """
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(root, "benchmarks")
    if not os.path.isdir(candidate):
        candidate = os.path.join(os.getcwd(), "benchmarks")
    return os.path.join(candidate, "results", "fabric")


@dataclass
class StoredResult:
    """One cached design-point outcome."""

    key: str
    study: str
    params: Dict[str, Any]
    metrics: Dict[str, Any]
    elapsed: float = 0.0
    created: float = field(default_factory=time.time)

    def to_json(self) -> str:
        return canonical_json({
            "key": self.key,
            "study": self.study,
            "params": self.params,
            "metrics": self.metrics,
            "elapsed": self.elapsed,
            "created": self.created,
        })

    @classmethod
    def from_json(cls, line: str) -> "StoredResult":
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError(
                f"store record is {type(payload).__name__}, not an object"
            )
        missing = [f for f in ("key", "study") if f not in payload]
        if missing:
            raise ValueError(
                "store record missing field(s): " + ", ".join(missing)
            )
        return cls(
            key=payload["key"],
            study=payload["study"],
            params=payload.get("params", {}),
            metrics=payload.get("metrics", {}),
            elapsed=payload.get("elapsed", 0.0),
            created=payload.get("created", 0.0),
        )


class ResultStore:
    """Read-only flat JSONL store with an in-memory last-wins index."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._index: Dict[str, StoredResult] = {}
        self.duplicates = 0
        self.load()

    # -- reading --------------------------------------------------------
    def load(self) -> None:
        """(Re)build the index from disk.

        A torn *final* line (crash mid-``os.write``) is skipped with a
        warning — that is the only corruption the append discipline can
        produce.  An invalid line anywhere else means the file was
        damaged by something other than a crash, so raise a clean
        ``ValueError`` naming the file and line rather than silently
        dropping records.  Duplicate keys keep the last record
        (idempotent reruns); the count is exposed as ``duplicates``.
        """
        self._index.clear()
        self.duplicates = 0
        if not os.path.exists(self.path):
            return
        with open(self.path) as handle:
            lines = handle.readlines()
        last = len(lines)
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = StoredResult.from_json(line)
            except ValueError as exc:
                if lineno == last:
                    warnings.warn(
                        f"{self.path}: skipping torn final line "
                        f"{lineno} ({exc})",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                raise ValueError(
                    f"{self.path}:{lineno}: corrupt store record "
                    f"({exc})"
                ) from exc
            if record.key in self._index:
                self.duplicates += 1
            self._index[record.key] = record

    def get(self, key: str) -> Optional[StoredResult]:
        return self._index.get(key)

    def get_point(self, point: ExperimentPoint) -> Optional[StoredResult]:
        return self.get(point.key)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[StoredResult]:
        return iter(self._index.values())

    def records(self, study: Optional[str] = None) -> List[StoredResult]:
        found = [r for r in self._index.values()
                 if study is None or r.study == study]
        return sorted(found, key=lambda r: r.created)
