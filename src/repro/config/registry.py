"""String-keyed component registries for protection mechanisms.

The repo's mechanisms were constructed through ad-hoc factories — the
``builders`` dict inside ``repro.experiments.registry._scheme_factory``,
the hard-wired ``LineFixedScheme``/``ISVRegisterFileProtector`` calls in
``repro.core.penelope`` and ``cli.py``.  This module replaces them with
one pattern: each structure kind owns a :class:`ComponentRegistry`
mapping a mechanism *name* (the string a :class:`~repro.config.specs.
MechanismSpec` carries) to a factory.  New schemes plug in with
``@CACHE_SCHEMES.register("my_scheme")`` and are immediately reachable
from JSON configs, ``repro run``, the experiment engine, and
:mod:`repro.api` — no construction code changes.

Factories take two kinds of arguments:

- *context* arguments, positional, supplied by the builder (e.g. the
  register-file name and width, or the scheduler policy) — callers of
  :meth:`ComponentRegistry.build` pass them; specs never contain them;
- *parameters*, keyword, supplied by the spec's ``params`` mapping and
  validated against the factory signature before construction.

Registered mechanisms (every registry also accepts ``"none"``, which
builds nothing and leaves the structure unprotected):

- cache-like (DL0 / DTLB): ``set_fixed``, ``way_fixed``, ``line_fixed``,
  ``line_dynamic`` (Section 3.2.1 / 4.6);
- register files: ``isv`` (Section 4.4);
- scheduler: ``derived_policy`` (profile + Figure 3 casuistic),
  ``paper_policy`` (the published Section 4.5 classification);
- adder: ``idle_injection`` (Section 3.1 / 4.3).
"""

from __future__ import annotations

import inspect
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.config.specs import SpecError

if TYPE_CHECKING:
    from repro.core.memory_like import (
        ISVRegisterFileProtector,
        SchedulerProtector,
    )


class ComponentRegistry:
    """Maps mechanism names to factories, with parameter validation."""

    def __init__(self, kind: str,
                 context_params: Tuple[str, ...] = ()) -> None:
        self.kind = kind
        self.context_params = context_params
        self._factories: Dict[str, Callable[..., Any]] = {}

    def register(self, name: str) -> Callable:
        """Decorator: register ``factory`` under ``name``."""
        if name in self._factories:
            raise ValueError(
                f"{self.kind} {name!r} is already registered"
            )

        def wrap(factory: Callable[..., Any]) -> Callable[..., Any]:
            self._factories[name] = factory
            return factory

        return wrap

    def names(self) -> List[str]:
        return sorted(self._factories)

    def accepted_params(self, name: str) -> List[str]:
        """The spec-settable parameter names of one mechanism."""
        factory = self._get(name, where=self.kind)
        if factory is None:  # "none" takes no parameters
            return []
        signature = inspect.signature(factory)
        return [
            p.name for p in signature.parameters.values()
            if p.name not in self.context_params
            and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]

    def validate(self, name: str, params: Mapping[str, Any],
                 where: str = "") -> None:
        """Raise :class:`SpecError` on unknown names or parameters."""
        prefix = f"{where}: " if where else ""
        factory = self._get(name, where=where)
        if factory is None:
            if params:
                raise SpecError(
                    f"{prefix}mechanism 'none' takes no parameters, got "
                    f"{', '.join(sorted(params))}"
                )
            return
        accepted = self.accepted_params(name)
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise SpecError(
                f"{prefix}unknown parameter(s) "
                f"{', '.join(map(repr, unknown))} for {self.kind} "
                f"{name!r}; accepted: "
                f"{', '.join(accepted) if accepted else '(none)'}"
            )

    def build(self, name: str, params: Mapping[str, Any] = (),
              *context: Any, where: str = "") -> Any:
        """Instantiate ``name`` with context args + spec params.

        Returns ``None`` for the ``"none"`` mechanism.
        """
        params = dict(params or {})
        self.validate(name, params, where=where)
        factory = self._get(name, where=where)
        if factory is None:
            return None
        try:
            return factory(*context, **params)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            prefix = f"{where}: " if where else ""
            raise SpecError(
                f"{prefix}cannot build {self.kind} {name!r} with params "
                f"{params!r}: {exc}"
            ) from exc

    def _get(self, name: str,
             where: str = "") -> Optional[Callable[..., Any]]:
        if name == "none":
            return None
        try:
            return self._factories[name]
        except KeyError:
            prefix = f"{where}: " if where else ""
            raise SpecError(
                f"{prefix}unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names() + ['none'])}"
            ) from None


# ----------------------------------------------------------------------
# Cache-like structures (DL0, DTLB) — inversion schemes
# ----------------------------------------------------------------------
CACHE_SCHEMES = ComponentRegistry("cache inversion scheme")


def _register_cache_schemes() -> None:
    from repro.core.cache_like import (
        LineDynamicScheme,
        LineFixedScheme,
        SetFixedScheme,
        WayFixedScheme,
    )

    CACHE_SCHEMES.register("set_fixed")(SetFixedScheme)
    CACHE_SCHEMES.register("way_fixed")(WayFixedScheme)
    CACHE_SCHEMES.register("line_fixed")(LineFixedScheme)
    CACHE_SCHEMES.register("line_dynamic")(LineDynamicScheme)


_register_cache_schemes()


# ----------------------------------------------------------------------
# Register files — release-time protectors
# ----------------------------------------------------------------------
RF_PROTECTORS = ComponentRegistry(
    "register-file protector",
    context_params=("rf_name", "width", "sample_period"),
)


@RF_PROTECTORS.register("isv")
def _build_isv(rf_name: str, width: int, sample_period: float,
               entries_hint: int = 128) -> "ISVRegisterFileProtector":
    from repro.core.memory_like import ISVRegisterFileProtector

    return ISVRegisterFileProtector(rf_name, width, sample_period,
                                    entries_hint=entries_hint)


# ----------------------------------------------------------------------
# Scheduler — per-field repair policies
# ----------------------------------------------------------------------
SCHEDULER_PROTECTORS = ComponentRegistry(
    "scheduler protector",
    context_params=("policy", "sample_period"),
)


@SCHEDULER_PROTECTORS.register("derived_policy")
def _build_derived_policy(policy: Any,
                          sample_period: float) -> "SchedulerProtector":
    """Apply a policy derived from profiling (``policy`` is supplied by
    the builder — :class:`~repro.core.penelope.PenelopeProcessor`
    profiles the first workload trace when none is given)."""
    from repro.core.memory_like import SchedulerProtector

    return SchedulerProtector(policy, sample_period)


@SCHEDULER_PROTECTORS.register("paper_policy")
def _build_paper_policy(policy: Any,
                        sample_period: float) -> "SchedulerProtector":
    """Apply the published Section 4.5 classification, ignoring any
    derived ``policy``."""
    from repro.core.memory_like import (
        PAPER_SCHEDULER_POLICY,
        SchedulerProtector,
    )

    return SchedulerProtector(PAPER_SCHEDULER_POLICY, sample_period)


# ----------------------------------------------------------------------
# Adder — combinational idle-input mechanisms
# ----------------------------------------------------------------------
ADDER_MECHANISMS = ComponentRegistry("adder mechanism")


@ADDER_MECHANISMS.register("idle_injection")
def _build_idle_injection(
    pair: Tuple[int, int] = (1, 8),
) -> Dict[str, Any]:
    """Settings for idle-input injection: the synthetic input pair to
    alternate during idle cycles (Section 4.3's best pair by default)."""
    pair = tuple(pair)
    if len(pair) != 2:
        raise ValueError(f"pair must have two entries, got {pair!r}")
    return {"pair": pair, "inject": True}


_STRUCTURE_REGISTRIES: Mapping[str, ComponentRegistry] = {
    "adder": ADDER_MECHANISMS,
    "int_rf": RF_PROTECTORS,
    "fp_rf": RF_PROTECTORS,
    "scheduler": SCHEDULER_PROTECTORS,
    "dl0": CACHE_SCHEMES,
    "dtlb": CACHE_SCHEMES,
}


def registry_for_structure(structure: str) -> ComponentRegistry:
    """The registry validating/building mechanisms of one structure."""
    try:
        return _STRUCTURE_REGISTRIES[structure]
    except KeyError:
        raise SpecError(
            f"unknown structure {structure!r}; known: "
            f"{', '.join(sorted(_STRUCTURE_REGISTRIES))}"
        ) from None


__all__ = [
    "ADDER_MECHANISMS",
    "CACHE_SCHEMES",
    "ComponentRegistry",
    "RF_PROTECTORS",
    "SCHEDULER_PROTECTORS",
    "registry_for_structure",
]
