"""Run provenance manifests: what produced a stored result, exactly.

A JSONL store row says *what* was measured; the manifest next to it
says *how*: which code revision, package version, interpreter, host,
spec, worker count and wall-clock produced the rows.  Every sweep with
a result store writes ``manifests/<run_id>.json`` beside its event log
(``repro sweep``: next to the store directory), plus ``manifest.json``
as a copy of the latest run's, which ``repro results`` /
``repro report`` surface as a provenance header.

Everything here is failure-tolerant: a missing ``git`` binary, a
non-checkout install, or an unwritable directory degrade to ``None``
fields / a skipped write — provenance must never take a sweep down.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional

#: Schema tag so later readers can evolve the format.
MANIFEST_SCHEMA = "repro.manifest/1"

#: Latest run's manifest filename, written next to the result store.
MANIFEST_NAME = "manifest.json"

#: Directory of per-run manifests, next to the result store.
MANIFEST_DIR = "manifests"


def manifest_path_for(store_path: str) -> str:
    """``manifest.json`` (the latest run's) in the store's directory."""
    return os.path.join(os.path.dirname(store_path) or ".", MANIFEST_NAME)


def publish_manifest(store_path: str, manifest: Mapping[str, Any]) -> str:
    """Write ``manifests/<run_id>.json`` in the store's directory, then
    copy it to ``manifest.json`` as the latest run's.

    Returns the per-run path.  Both writes are atomic and their temp
    files are named by run, so concurrent runs on one store never leave
    a torn file; the latest copy is whichever run finished last.
    """
    directory = os.path.dirname(store_path) or "."
    run_id = str(manifest["run_id"])
    path = os.path.join(directory, MANIFEST_DIR, f"{run_id}.json")
    write_manifest(path, manifest)
    temp = os.path.join(directory, f".{MANIFEST_NAME}.{run_id}.tmp")
    shutil.copyfile(path, temp)
    os.replace(temp, os.path.join(directory, MANIFEST_NAME))
    return path


def git_revision(cwd: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """``{"revision": ..., "dirty": ...}`` of the working tree, if any."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, timeout=5,
            capture_output=True, text=True,
        )
        if revision.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, timeout=5,
            capture_output=True, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return {
        "revision": revision.stdout.strip(),
        "dirty": bool(status.returncode == 0 and status.stdout.strip()),
    }


def spec_hash(spec_payload: Mapping[str, Any]) -> str:
    """Stable content hash of a sweep/study spec payload."""
    blob = json.dumps(spec_payload, sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def environment_fingerprint() -> Dict[str, Any]:
    """Interpreter / platform / host identity of this process."""
    from repro import __version__

    return {
        "package_version": __version__,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
    }


def build_manifest(
    *,
    run_id: str,
    spec_payload: Mapping[str, Any],
    points: List[Dict[str, Any]],
    workers: int,
    started: float,
    finished: float,
    store_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    events_path: Optional[str] = None,
    fabric: Optional[Mapping[str, Any]] = None,
    resumed_from: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dict for one finished sweep.

    ``points`` entries carry ``key`` / ``params`` / ``cached`` /
    ``elapsed`` per design point (the per-point wall-time record the
    acceptance criteria ask for).  Fabric runs additionally record the
    batch plan (``fabric``: journal path, batch/lease parameters, steal
    and retry counts) and, on resume, the prior attempt's run id.
    """
    executed = [p for p in points if not p.get("cached")]
    slowest = max(executed, key=lambda p: p.get("elapsed", 0.0),
                  default=None)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id,
        "study": spec_payload.get("study"),
        "spec": dict(spec_payload),
        "spec_hash": spec_hash(spec_payload),
        "git": git_revision(),
        "environment": environment_fingerprint(),
        "workers": workers,
        "started": started,
        "finished": finished,
        "started_iso": _iso(started),
        "finished_iso": _iso(finished),
        "wall_time": finished - started,
        "points": points,
        "totals": {
            "points": len(points),
            "cache_hits": len(points) - len(executed),
            "executed": len(executed),
            "slowest_key": slowest["key"] if slowest else None,
            "slowest_elapsed": slowest["elapsed"] if slowest else None,
        },
        "store": store_path,
        "trace": trace_path,
        "events": events_path,
    }
    if fabric is not None:
        manifest["fabric"] = dict(fabric)
    if resumed_from is not None:
        manifest["resumed_from"] = resumed_from
    return manifest


def write_manifest(path: str, manifest: Mapping[str, Any]) -> None:
    """Atomic write (temp + rename): readers never see a torn manifest."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    temp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    os.replace(temp, path)


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest back, validating the schema tag."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: not a run manifest (expected schema "
            f"{MANIFEST_SCHEMA!r})"
        )
    return payload


def describe_manifest(manifest: Mapping[str, Any]) -> str:
    """One provenance line for CLI headers."""
    git = manifest.get("git") or {}
    revision = git.get("revision") or "no-git"
    if git.get("dirty"):
        revision = f"{revision[:12]}+dirty"
    else:
        revision = revision[:12]
    totals = manifest.get("totals") or {}
    line = (
        f"provenance: run {manifest.get('run_id', '?')} "
        f"@ {revision} v{(manifest.get('environment') or {}).get('package_version', '?')} "
        f"| {manifest.get('study', '?')} "
        f"{totals.get('points', '?')} points "
        f"({totals.get('cache_hits', '?')} cached) "
        f"in {manifest.get('wall_time', 0.0):.2f}s "
        f"on {manifest.get('workers', '?')} worker(s) "
        f"at {manifest.get('finished_iso', '?')}"
    )
    if manifest.get("resumed_from"):
        line += f" [resumed from {manifest['resumed_from']}]"
    return line


def _iso(epoch: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(epoch))
