"""The sweep fabric: the one sweep runner and the one result store.

Every sweep runs here, durably: results survive crashes, and a store
scales past a single rescan-able file:

* :mod:`repro.fabric.store` — results sharded into JSONL files by
  key-hash range with a SQLite index (lookups and study queries stop
  being O(whole-file)); ``compact`` and flat-store migration included.
* :mod:`repro.fabric.lease` — pending batches leased by workers with a
  TTL + heartbeat; expired leases are stolen so a killed worker's batch
  is re-run, not lost.
* :mod:`repro.fabric.journal` — atomic per-run sweep journal enabling
  ``repro sweep --resume RUN_ID``.
* :mod:`repro.fabric.runner` — the sweep runner that ties them
  together (in process for one worker, spawned processes for more).

Submodules import ``repro.experiments``, which itself uses
:mod:`repro.fabric.io`; attribute access is lazy (PEP 562) so importing
either package never recurses into the other mid-initialisation.
"""

from __future__ import annotations

from typing import Any, List

_EXPORTS = {
    "append_record": "repro.fabric.io",
    "atomic_write_text": "repro.fabric.io",
    "atomic_write_json": "repro.fabric.io",
    "StoreIndex": "repro.fabric.index",
    "ShardedResultStore": "repro.fabric.store",
    "open_result_store": "repro.fabric.store",
    "LeaseBoard": "repro.fabric.lease",
    "Lease": "repro.fabric.lease",
    "SweepJournal": "repro.fabric.journal",
    "BatchPlan": "repro.fabric.journal",
    "load_journal": "repro.fabric.journal",
    "journal_path": "repro.fabric.journal",
    "list_runs": "repro.fabric.journal",
    "FabricRunner": "repro.fabric.runner",
    "FabricIncompleteError": "repro.fabric.runner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.fabric' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(__all__)
