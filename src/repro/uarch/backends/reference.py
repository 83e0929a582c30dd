"""Legacy import path of :class:`repro.uarch.cache.Cache`.

The cache model lives in :mod:`repro.uarch.cache`.  This alias is kept
only because the benchmark's ``uarch.cache_replay`` span wraps
``repro.uarch.backends.reference.Cache.replay``; once that span points
at :mod:`repro.uarch.cache`, delete this package.
"""

from __future__ import annotations

from repro.uarch.cache import Cache

__all__ = ["Cache"]
