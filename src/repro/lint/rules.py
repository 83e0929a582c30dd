"""The in-tree ruleset: the repo's reproducibility invariants as AST checks.

Each rule encodes one contract the reproduction depends on (DESIGN.md §8
documents the why at length):

==========  ============================================================
DET001      no un-seeded ``random.*`` / clock / ``os.urandom`` calls in
            kernel code — only explicit ``random.Random(seed)`` instances
DET002      no iteration over set values (set order is salted per
            process: results fed from it are not bit-reproducible)
HOT001      classes in designated hot-path modules declare ``__slots__``
RST001      a class defining ``metrics()`` defines ``reset()``, and every
            counter attribute initialised in ``__init__`` is re-assigned
            in ``reset()`` (attribute-set analysis, transitive through
            ``self.<helper>()`` calls)
REG001      every ``spec_paths`` binding in the experiments registry
            resolves against the spec classes in ``config/specs.py``
OBS001      the tracer's disabled paths allocate nothing before the
            enabled-check (calls / comprehensions / f-strings)
FAB001      fabric store/journal modules write only through the
            crash-safe helpers in ``fabric/io.py`` (single-``os.write``
            O_APPEND append or temp+rename), never via ``open(.., "a")``
            / buffered ``.write()``
==========  ============================================================
"""

from __future__ import annotations

import ast
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.engine import FileContext, Finding, Rule

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _walk_functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def _body_after_docstring(func: ast.FunctionDef) -> List[ast.stmt]:
    body = list(func.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def _base_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _self_attr_target(node: ast.expr) -> Optional[str]:
    """``self.X`` as an assignment target -> ``"X"``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


# ----------------------------------------------------------------------
# DET001 — determinism: no ambient randomness / clocks in kernel code
# ----------------------------------------------------------------------
#: Directory names whose files are kernel code (results must be
#: bit-exact given the seeds); ``obs/`` is exempt — wall-clock time is
#: the tracer's whole point.
KERNEL_DIRS = ("uarch", "nbti", "circuits", "core", "workloads")

_TIME_BANNED = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
}
_OS_BANNED = {"urandom", "getrandom"}
#: ``random.Random(seed)`` is the sanctioned construction; everything
#: else on the module (including ``SystemRandom``) is ambient state.
_RANDOM_ALLOWED = {"Random"}
_NUMPY_BANNED = {
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal", "default_rng",
}


class DeterminismRule(Rule):
    id = "DET001"
    severity = "error"
    description = (
        "kernel code must not call module-level random.*, clock "
        "functions, or os.urandom; draw from an explicit seeded "
        "random.Random instance"
    )

    def __init__(self, kernel_dirs: Sequence[str] = KERNEL_DIRS) -> None:
        self.kernel_dirs = tuple(kernel_dirs)

    def applies(self, ctx: FileContext) -> bool:
        parts = ctx.relpath.split("/")
        if "obs" in parts:
            return False
        return any(d in parts for d in self.kernel_dirs)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        aliases: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("random", "time", "os", "numpy"):
                        aliases[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = (node.module or "").split(".")[0]
                for alias in node.names:
                    bad = (
                        (module == "random"
                         and alias.name not in _RANDOM_ALLOWED)
                        or (module == "time"
                            and alias.name in _TIME_BANNED)
                        or (module == "os" and alias.name in _OS_BANNED)
                    )
                    if bad:
                        yield ctx.finding(
                            self, node,
                            f"from {module} import {alias.name}: "
                            f"ambient {module!r} state is not "
                            f"reproducible in kernel code",
                        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            if isinstance(value, ast.Name):
                module = aliases.get(value.id)
                message = None
                if (module == "random"
                        and func.attr not in _RANDOM_ALLOWED):
                    message = (
                        f"random.{func.attr}() uses the shared "
                        f"module-level RNG; use a seeded "
                        f"random.Random(seed) instance"
                    )
                elif module == "time" and func.attr in _TIME_BANNED:
                    message = (
                        f"time.{func.attr}() makes kernel results "
                        f"depend on the wall clock"
                    )
                elif module == "os" and func.attr in _OS_BANNED:
                    message = f"os.{func.attr}() is non-deterministic"
                if message is not None:
                    yield ctx.finding(self, node, message)
            elif (isinstance(value, ast.Attribute)
                  and value.attr == "random"
                  and isinstance(value.value, ast.Name)
                  and aliases.get(value.value.id) == "numpy"
                  and func.attr in _NUMPY_BANNED):
                yield ctx.finding(
                    self, node,
                    f"numpy.random.{func.attr}() draws from global or "
                    f"unseeded state; pass a seeded Generator instead",
                )


# ----------------------------------------------------------------------
# DET002 — determinism: no iteration over set values
# ----------------------------------------------------------------------
#: Consumers whose result does not depend on element order.
_ORDER_NEUTRAL = {"sorted", "min", "max", "sum", "len", "any", "all",
                  "set", "frozenset"}


def _is_setlike(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (isinstance(func, ast.Attribute)
                and func.attr in ("union", "intersection", "difference",
                                  "symmetric_difference")
                and _is_setlike(func.value)):
            return True
    if (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                     ast.BitXor, ast.Sub))):
        return _is_setlike(node.left) or _is_setlike(node.right)
    return False


class SetIterationRule(Rule):
    id = "DET002"
    severity = "warning"
    description = (
        "iterating a set feeds hash-salted element order into results; "
        "sort first (sorted(...)) or keep an ordered container"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        parents = _parent_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_setlike(node.iter):
                yield ctx.finding(
                    self, node.iter,
                    "for-loop over a set: element order is not "
                    "deterministic across processes",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                if self._order_neutral(node, parents):
                    continue
                for gen in node.generators:
                    if _is_setlike(gen.iter):
                        yield ctx.finding(
                            self, gen.iter,
                            "comprehension over a set: element order "
                            "is not deterministic across processes",
                        )
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("list", "tuple")
                  and len(node.args) == 1
                  and _is_setlike(node.args[0])):
                yield ctx.finding(
                    self, node,
                    f"{node.func.id}(set) captures hash-salted order; "
                    f"use sorted(...)",
                )

    @staticmethod
    def _order_neutral(node: ast.expr,
                       parents: Mapping[ast.AST, ast.AST]) -> bool:
        """True when the comprehension is a direct argument of an
        order-insensitive consumer like ``sorted(...)``."""
        parent = parents.get(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_NEUTRAL
                and node in parent.args)


# ----------------------------------------------------------------------
# HOT001 — hot-path classes declare __slots__
# ----------------------------------------------------------------------
#: Modules whose classes sit on simulation hot paths: per-uop or
#: per-access object traffic where instance dicts cost real time and
#: memory (see benchmarks/bench_perf_kernel.py).
HOT_MODULES = (
    "uarch/cache.py",
    "uarch/core.py",
    "uarch/tlb.py",
    "uarch/uop.py",
    "core/cache_like.py",
    "core/inverted_mode.py",
)

_SLOTS_EXEMPT_BASES = {"Enum", "IntEnum", "Flag", "IntFlag", "StrEnum",
                       "Protocol", "Exception", "BaseException"}


def _has_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for deco in cls.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = (deco.func.id if isinstance(deco.func, ast.Name)
                else deco.func.attr if isinstance(deco.func, ast.Attribute)
                else None)
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if (kw.arg == "slots" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True):
                return True
    return False


class SlotsRule(Rule):
    id = "HOT001"
    severity = "error"
    description = (
        "classes in hot-path modules must declare __slots__ (or use "
        "@dataclass(slots=True)) so per-uop/per-access objects carry "
        "no instance dict"
    )

    def __init__(self, hot_modules: Sequence[str] = HOT_MODULES) -> None:
        self.hot_modules = tuple(hot_modules)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.relpath.endswith(self.hot_modules)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = _base_names(node)
            if bases & _SLOTS_EXEMPT_BASES:
                continue
            if any(b.endswith(("Error", "Exception")) for b in bases):
                continue
            if node.name.endswith(("Error", "Exception")):
                continue
            if not _has_slots(node):
                yield ctx.finding(
                    self, node,
                    f"hot-path class {node.name} does not declare "
                    f"__slots__",
                )


# ----------------------------------------------------------------------
# RST001 — reset() completeness for stat-bearing classes
# ----------------------------------------------------------------------
class ResetRule(Rule):
    id = "RST001"
    severity = "error"
    description = (
        "a class defining metrics() must define reset(), and every "
        "counter attribute assigned in __init__ must be re-assigned "
        "in reset() (directly or via a helper it calls)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if "Protocol" in _base_names(cls):
                continue
            methods = {
                stmt.name: stmt for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            has_metrics = "metrics" in methods
            has_reset = "reset" in methods
            if has_metrics and not has_reset:
                yield ctx.finding(
                    self, methods["metrics"],
                    f"{cls.name} defines metrics() but no reset(): "
                    f"stat-bearing components must support in-place "
                    f"reuse across runs",
                )
                continue
            if not has_reset or "__init__" not in methods:
                continue
            counters = self._assigned_attrs(
                methods, "__init__", counters_only=True
            )
            if not counters:
                continue
            reset_attrs = self._assigned_attrs(
                methods, "reset", counters_only=False
            )
            missing = sorted(set(counters) - set(reset_attrs))
            for name in missing:
                yield ctx.finding(
                    self, methods["reset"],
                    f"{cls.name}.reset() does not re-assign counter "
                    f"attribute {name!r} initialised in __init__ "
                    f"(line {counters[name]})",
                )

    @staticmethod
    def _assigned_attrs(methods: Mapping[str, ast.FunctionDef],
                        entry: str,
                        counters_only: bool) -> Dict[str, int]:
        """``self.X`` attributes assigned in ``entry``, following
        ``self.<helper>()`` calls to other methods of the class.

        With ``counters_only`` the collection is restricted to
        counter-like initialisations: numeric (non-bool) constants.
        """
        assigned: Dict[str, int] = {}
        seen: Set[str] = set()
        queue = [entry]
        while queue:
            name = queue.pop()
            if name in seen or name not in methods:
                continue
            seen.add(name)
            for node in ast.walk(methods[name]):
                if isinstance(node, ast.Assign):
                    targets: List[ast.expr] = list(node.targets)
                    value: Optional[ast.expr] = node.value
                elif isinstance(node, ast.AnnAssign) and node.value:
                    targets = [node.target]
                    value = node.value
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                    value = None  # += never *initialises* a counter
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == "self"):
                    queue.append(node.func.attr)
                    continue
                else:
                    continue
                if counters_only:
                    if not (isinstance(value, ast.Constant)
                            and isinstance(value.value, (int, float))
                            and not isinstance(value.value, bool)):
                        continue
                for target in targets:
                    attr = _self_attr_target(target)
                    if attr is not None and attr not in assigned:
                        assigned[attr] = node.lineno
        return assigned


# ----------------------------------------------------------------------
# REG001 — registry spec_paths resolve against the spec classes
# ----------------------------------------------------------------------
class SpecPathsRule(Rule):
    id = "REG001"
    severity = "error"
    description = (
        "every spec_paths binding (register_study / StudyDefinition) "
        "must be a dotted path that resolves against the spec classes "
        "in config/specs.py"
    )

    def applies(self, ctx: FileContext) -> bool:
        return "spec_paths" in ctx.source

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        model = _spec_model()
        if model is None:
            return
        module_dicts = self._module_dicts(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name not in ("register_study", "StudyDefinition"):
                continue
            for kw in node.keywords:
                if kw.arg != "spec_paths":
                    continue
                for param, value in self._dict_entries(
                        kw.value, module_dicts):
                    message = self._validate(model, value.value)
                    if message is not None:
                        yield ctx.finding(
                            self, value,
                            f"spec_paths[{param!r}] = "
                            f"{value.value!r}: {message}",
                        )

    @staticmethod
    def _module_dicts(tree: ast.AST) -> Dict[str, ast.Dict]:
        """Module-level ``NAME = {...}`` dict assignments, for the
        shared-axes idiom ``spec_paths={**_WORKLOAD_PATHS, ...}``."""
        dicts: Dict[str, ast.Dict] = {}
        for stmt in getattr(tree, "body", []):
            if (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Dict)):
                dicts[stmt.targets[0].id] = stmt.value
        return dicts

    def _dict_entries(
        self, node: ast.expr, module_dicts: Mapping[str, ast.Dict],
        _depth: int = 0,
    ) -> Iterator[Tuple[str, ast.Constant]]:
        """(param name, path string node) pairs of a spec_paths dict,
        expanding ``**shared`` spreads of module-level dicts."""
        if not isinstance(node, ast.Dict) or _depth > 4:
            return
        for key, value in zip(node.keys, node.values):
            if key is None:  # ** spread
                if (isinstance(value, ast.Name)
                        and value.id in module_dicts):
                    yield from self._dict_entries(
                        module_dicts[value.id], module_dicts,
                        _depth + 1)
                continue
            if (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                yield key.value, value

    @staticmethod
    def _validate(model: Mapping[str, Any], path: str) -> Optional[str]:
        """None when the dotted path resolves; else the failure reason."""
        import dataclasses

        segments = path.split(".")
        if len(segments) < 2:
            return "spec paths are dotted (section.field[...])"
        if segments[0] not in model:
            return (f"unknown spec section {segments[0]!r} "
                    f"(expected one of {', '.join(sorted(model))})")
        current: Any = model[segments[0]]
        consumed = segments[0]
        for segment in segments[1:]:
            if isinstance(current, Mapping):
                # mechanism params dicts carry scheme-dependent keys;
                # anything below them is dynamic by design
                return None
            if (dataclasses.is_dataclass(current)
                    and hasattr(current, segment)):
                current = getattr(current, segment)
                consumed = f"{consumed}.{segment}"
                continue
            return (f"{consumed!r} has no field {segment!r} in "
                    f"config/specs.py")
        return None


def _spec_model() -> Optional[Dict[str, Any]]:
    """Default spec instances the paths are resolved against.

    Imported lazily so the linter itself stays importable on trees
    without the config subsystem (the rule silently skips there).
    """
    try:
        from repro.config import specs
    except ImportError:  # pragma: no cover - repro always importable here
        return None
    return {
        "processor": specs.ProcessorSpec(),
        "protection": specs.ProtectionSpec(),
        "workload": specs.WorkloadSpec(),
    }


# ----------------------------------------------------------------------
# OBS001 — allocation-free disabled tracing
# ----------------------------------------------------------------------
#: Tracer methods that sit on kernel hot paths: their *first* statement
#: must be the enabled/None guard (DESIGN.md §7's <1%-disabled gate).
_GUARDED_TRACER_METHODS = {"span", "begin", "end", "instant",
                           "record_span"}

_ALLOC_NODES = (ast.ListComp, ast.SetComp, ast.DictComp,
                ast.GeneratorExp, ast.JoinedStr, ast.Dict, ast.List,
                ast.Set)


def _is_enabled_guard(stmt: ast.If) -> bool:
    """``if not self.enabled: return ...`` / ``if token is None:
    return`` shaped early exits.  The single-return body requirement
    keeps ordinary ``is None`` checks (lazy-init, caching) out."""
    if len(stmt.body) != 1 or not isinstance(stmt.body[0], ast.Return):
        return False
    for node in ast.walk(stmt.test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            if any(isinstance(c, ast.Constant) and c.value is None
                   for c in node.comparators):
                return True
    return False


def _allocations(nodes: Sequence[ast.AST]) -> Iterator[ast.AST]:
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Call) or isinstance(node, _ALLOC_NODES):
                yield node


class TraceAllocationRule(Rule):
    id = "OBS001"
    severity = "error"
    description = (
        "tracer disabled paths must not allocate: no calls, "
        "comprehensions, f-strings or container literals before the "
        "enabled/None guard"
    )

    def __init__(self, target: str = "obs/trace.py") -> None:
        self.target = target

    def applies(self, ctx: FileContext) -> bool:
        return ctx.relpath.endswith(self.target)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        tracer_classes = [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef) and node.name == "Tracer"
        ]
        for cls in tracer_classes:
            for stmt in cls.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and stmt.name in _GUARDED_TRACER_METHODS):
                    yield from self._check_guarded(ctx, stmt)
        for func in _walk_functions(ctx.tree):
            yield from self._check_pre_guard(ctx, func)

    def _check_guarded(self, ctx: FileContext,
                       func: ast.FunctionDef) -> Iterator[Finding]:
        body = _body_after_docstring(func)
        first = body[0] if body else None
        if not (isinstance(first, ast.If)
                and _is_enabled_guard(first)):
            yield ctx.finding(
                self, func,
                f"Tracer.{func.name}() must begin with its "
                f"enabled/None guard so the disabled path stays "
                f"allocation-free",
            )

    def _check_pre_guard(self, ctx: FileContext,
                         func: ast.FunctionDef) -> Iterator[Finding]:
        body = _body_after_docstring(func)
        for index, stmt in enumerate(body):
            if isinstance(stmt, ast.If) and _is_enabled_guard(stmt):
                for alloc in _allocations(body[:index]):
                    yield ctx.finding(
                        self, alloc,
                        f"{func.name}(): allocation before the "
                        f"enabled-check runs on the disabled path too",
                    )
                for alloc in _allocations([stmt.test]):
                    yield ctx.finding(
                        self, alloc,
                        f"{func.name}(): the enabled-check itself "
                        f"must not allocate",
                    )
                break


# ----------------------------------------------------------------------
# FAB001 — fabric durability: writes go through the sanctioned helpers
# ----------------------------------------------------------------------
#: The fabric's crash-safety argument rests on exactly two write shapes
#: (DESIGN.md §9): a single ``os.write`` on an ``O_APPEND`` fd (a crash
#: tears at most the final line) and temp+``os.replace`` (readers see
#: old or new, never partial).  Both live in ``fabric/io.py``; any other
#: write in these files silently re-introduces torn-record windows.
FAB_EXEMPT_FILES = ("fabric/io.py",)

_WRITE_MODE_CHARS = frozenset("awx+")


def _open_mode(call: ast.Call) -> Optional[str]:
    """The constant mode string of an ``open`` call, if statically known."""
    mode_node: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if mode_node is None:
        return "r"
    if (isinstance(mode_node, ast.Constant)
            and isinstance(mode_node.value, str)):
        return mode_node.value
    return None


class FabricWriteRule(Rule):
    id = "FAB001"
    severity = "error"
    description = (
        "fabric store/journal modules must write through the fabric.io "
        "helpers (append_record / atomic_write_*): no open() in a "
        "write mode, no .write()/.writelines() calls"
    )

    def applies(self, ctx: FileContext) -> bool:
        if ctx.relpath.endswith(FAB_EXEMPT_FILES):
            return False
        parts = ctx.relpath.split("/")
        return ("fabric" in parts
                or ctx.relpath.endswith("experiments/store.py"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _open_mode(node)
                if mode is None:
                    yield ctx.finding(
                        self, node,
                        "open() with a non-constant mode cannot be "
                        "verified crash-safe; use the fabric.io helpers",
                    )
                elif _WRITE_MODE_CHARS & set(mode):
                    yield ctx.finding(
                        self, node,
                        f"open(.., {mode!r}) bypasses the crash-safe "
                        f"write discipline; use fabric.io.append_record "
                        f"or atomic_write_*",
                    )
            elif (isinstance(func, ast.Attribute)
                  and func.attr in ("write", "writelines")):
                yield ctx.finding(
                    self, node,
                    f".{func.attr}() in a fabric module: buffered or "
                    f"multi-syscall writes can tear records mid-crash; "
                    f"use fabric.io.append_record or atomic_write_*",
                )


# ----------------------------------------------------------------------
# Default ruleset
# ----------------------------------------------------------------------
def default_rules() -> List[Rule]:
    """Fresh instances of the full in-tree ruleset."""
    return [
        DeterminismRule(),
        SetIterationRule(),
        SlotsRule(),
        ResetRule(),
        SpecPathsRule(),
        TraceAllocationRule(),
        FabricWriteRule(),
    ]
