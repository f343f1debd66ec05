"""Concurrency-readiness rules (REP401–REP406) over a linked Program.

The multi-tenant serving daemon puts code written for "one process, one
caller" under concurrent load.  These rules flag the patterns that
silently break there, using the whole-program inventory and call graph
built by :mod:`.dataflow`:

- ``REP401`` module-level mutable global mutated from function scope
  (globals bound to ``threading.local()`` are excused — attribute writes
  there are per-thread by design);
- ``REP402`` (transitive) write to a known shared singleton from a
  hot-path function, where the hot paths are declared in
  :data:`DEFAULT_HOT_PATHS` (serving entry points + metric/trace record
  paths).  State whose direct writers all hold a lock, and state bound to
  ``threading.local()``, is excused — the rule flags *unprotected*
  interleaving, not the fix for it;
- ``REP403`` RNG stored in module/class-shared state and drawn from
  multiple call paths (nondeterministic under interleaving);
- ``REP404`` import-time side effects (I/O, RNG draws, env reads);
- ``REP405`` unguarded check-then-act on shared state (read + conditional
  mutate with neither a lock nor a version stamp);
- ``REP406`` obs span/metric name literals must be registered in
  :mod:`repro.obs.names` (and registered names must be referenced
  somewhere — the static replacement for the runtime name-coverage test).

Accepted hazards are recorded in ``analysis-baseline.json`` (see
:mod:`.baseline`) rather than sprinkled as ``noqa`` comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .astlint import _attr_chain
from .dataflow import (
    FunctionInfo,
    Program,
    SharedState,
    build_program,
    iter_import_side_effects,
)
from .diagnostics import Diagnostic, apply_suppressions, noqa_lines

#: Hot-path declarations.  Bare names match any function/method of that
#: name; dotted entries match a ``Class.method`` qualname suffix.  These
#: are the code paths a concurrent serving daemon drives per request, plus
#: the metrics/tracing record paths every instrumented call site hits.
DEFAULT_HOT_PATHS: Tuple[str, ...] = (
    "predict_encoded",
    "rank",
    "rank_many",
    "recommend",
    "recommend_many",
    "feedback",
    "Counter.inc",
    "Gauge.set",
    "Histogram.observe",
    "Tracer.span",
    "Tracer._pop",
)

#: Classes whose instances are process singletons or long-lived serving
#: objects shared across requests; their instance attributes count as
#: shared state.
DEFAULT_SHARED_CLASSES: Tuple[str, ...] = (
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "LITE",
    "EncodedTemplates",
    "DriftMonitor",
    "KeyedDriftMonitor",
    "TaskSwitchDetector",
    "ModelRegistry",
    "LiteService",
    "MicroBatcher",
)


@dataclass
class ConcurrencyPolicy:
    """Which functions are hot and which objects are shared — the two
    judgement calls the static pass cannot make on its own."""

    hot_paths: Tuple[str, ...] = DEFAULT_HOT_PATHS
    shared_classes: Tuple[str, ...] = DEFAULT_SHARED_CLASSES

    def is_hot(self, fn: FunctionInfo) -> bool:
        for entry in self.hot_paths:
            if "." in entry:
                if fn.qualname == entry or fn.qualname.endswith("." + entry):
                    return True
            elif fn.name == entry:
                return True
        return False


def _is_singleton_state(state: SharedState, policy: ConcurrencyPolicy) -> bool:
    """Known-singleton state: attrs of shared classes, or globals bound to
    an instance of one."""
    if state.cls is not None:
        return state.cls in policy.shared_classes
    return state.value_class in policy.shared_classes


# ---------------------------------------------------------------------------
# REP401 — module global mutated from function scope
# ---------------------------------------------------------------------------
def check_global_mutation(program: Program, policy: ConcurrencyPolicy) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for qual in sorted(program.functions):
        fn = program.functions[qual]
        for state_qual, lineno in sorted(fn.writes.items()):
            state = program.shared.get(state_qual)
            if state is None or state.kind != "global":
                continue
            if not state.is_shared(program.shared_classes):
                continue
            if state.is_thread_local:
                continue
            verb = "rebinds" if state.rebound and not state.mutable else "mutates"
            out.append(Diagnostic(
                "REP401",
                f"`{fn.qualname}` {verb} module-level global `{state.name}` "
                f"(defined at {state.path}:{state.lineno}); under threads every "
                f"caller races on this binding",
                path=fn.path, line=lineno,
                symbol=f"{fn.qualname}->{state.qualname}",
            ))
    return out


# ---------------------------------------------------------------------------
# REP402 — singleton write reachable from a hot path
# ---------------------------------------------------------------------------
def _all_writers_locked(
    program: Program, state_qual: str, hot_reachable: Set[str]
) -> bool:
    """Every hot-reachable direct writer of the state holds a lock.

    ``has_lock_guard`` is per-function, not per-statement, so this accepts
    a write anywhere inside a ``with ...lock...:`` function body — the
    granularity the whole pass works at.  Writers outside the hot-reachable
    set (checkpoint migrations, offline setup) run before the object is
    published to serving threads, so they are not interleaving hazards and
    do not need the lock.  A state with no known writers is *not* excused
    (the write must have come through an unresolved path).
    """
    writers = [
        w for w in program.writers_of(state_qual)
        if program.functions[w].name != "__init__"
    ]
    return bool(writers) and all(
        program.functions[w].has_lock_guard or w not in hot_reachable
        for w in writers
    )


def check_hot_path_writes(program: Program, policy: ConcurrencyPolicy) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    hot_reachable = _hot_reachable(program, policy)
    for qual in sorted(program.functions):
        fn = program.functions[qual]
        if not policy.is_hot(fn):
            continue
        # Group written singleton states by owner so one finding covers
        # e.g. every LITE attribute the hot path touches.
        by_owner: Dict[str, List[SharedState]] = {}
        for state_qual in sorted(program.effective_writes(qual)):
            state = program.shared.get(state_qual)
            if state is None or not _is_singleton_state(state, policy):
                continue
            # Per-thread state and consistently lock-guarded state are not
            # hazards: the rule exists to surface *unprotected* interleaving,
            # and demanding a baseline entry for every properly locked write
            # would bury the real findings.
            if state.is_thread_local or _all_writers_locked(
                program, state_qual, hot_reachable
            ):
                continue
            owner = (f"{state.module}.{state.cls}" if state.cls else state.qualname)
            by_owner.setdefault(owner, []).append(state)
        for owner, states in sorted(by_owner.items()):
            attrs = ", ".join(s.name for s in states)
            writer = program.writers_of(states[0].qualname)
            via = ""
            if writer and writer[0] != qual:
                path_chain = program.call_path(qual, writer[0])
                if path_chain and len(path_chain) > 1:
                    via = f" via {' -> '.join(p.split('.')[-1] for p in path_chain)}"
            out.append(Diagnostic(
                "REP402",
                f"hot path `{fn.qualname}` writes shared singleton state "
                f"`{owner}` ({attrs}){via}; concurrent requests interleave "
                f"these writes",
                path=fn.path, line=fn.lineno,
                symbol=f"{fn.qualname}->{owner}",
            ))
    return out


# ---------------------------------------------------------------------------
# REP403 — shared RNG drawn from multiple call paths
# ---------------------------------------------------------------------------
def check_shared_rng(program: Program, policy: ConcurrencyPolicy) -> List[Diagnostic]:
    hot_reachable = _hot_reachable(program, policy)
    out: List[Diagnostic] = []
    for state_qual in sorted(program.shared):
        state = program.shared[state_qual]
        if not state.is_rng:
            continue
        if state.kind == "instance-attr" and state.cls not in policy.shared_classes:
            continue
        readers = [q for q in program.readers_of(state_qual)
                   if program.functions[q].name != "__init__"]
        if not readers:
            continue
        hot_readers = [q for q in readers if q in hot_reachable]
        if len(readers) < 2 and not hot_readers:
            continue
        reason = (
            f"drawn from {len(readers)} call paths ({', '.join(readers)})"
            if len(readers) >= 2 else
            f"drawn on the hot path ({hot_readers[0]})"
        )
        out.append(Diagnostic(
            "REP403",
            f"shared RNG `{state.qualname}` is {reason}; interleaved draws "
            f"make results order-dependent under concurrency",
            path=state.path, line=state.lineno,
            symbol=state.qualname,
        ))
    return out


def _hot_reachable(program: Program, policy: ConcurrencyPolicy) -> Set[str]:
    """Hot-path functions plus everything they (transitively) call."""
    frontier = [q for q, fn in program.functions.items() if policy.is_hot(fn)]
    seen: Set[str] = set(frontier)
    while frontier:
        nxt: List[str] = []
        for qual in frontier:
            for callee in program.calls.get(qual, ()):
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# REP404 — import-time side effects
# ---------------------------------------------------------------------------
def check_import_side_effects(program: Program) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for name in sorted(program.modules):
        mod = program.modules[name]
        for lineno, label in iter_import_side_effects(mod):
            out.append(Diagnostic(
                "REP404",
                f"import of `{name}` performs {label} at module top level; "
                f"import order and environment then change behaviour",
                path=str(mod.path), line=lineno,
                symbol=name,
            ))
    return out


# ---------------------------------------------------------------------------
# REP405 — unguarded check-then-act on shared state
# ---------------------------------------------------------------------------
def check_check_then_act(program: Program, policy: ConcurrencyPolicy) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for qual in sorted(program.functions):
        fn = program.functions[qual]
        if fn.name == "__init__" or not fn.has_conditional:
            continue
        if fn.has_lock_guard or fn.has_version_check:
            continue
        for state_qual in sorted(set(fn.reads) & set(fn.writes)):
            state = program.shared.get(state_qual)
            if state is None or not state.is_shared(program.shared_classes):
                continue
            if state.is_thread_local:
                continue
            if not (state.mutable or state.rebound):
                continue
            if state_qual in fn.atomic_writes:
                continue  # resolved with dict.setdefault — atomic in CPython
            read_line = fn.reads[state_qual]
            write_line = fn.writes[state_qual]
            if read_line >= write_line:
                # Write-then-read, or a single-call op (`x.append(...)`) that
                # reads and writes on one line — not check-then-act.
                continue
            out.append(Diagnostic(
                "REP405",
                f"`{fn.qualname}` reads shared `{state.qualname}` (line "
                f"{read_line}) then conditionally mutates it (line {write_line}) "
                f"with no lock or version stamp; two threads both pass the "
                f"check and clobber each other",
                path=fn.path, line=write_line,
                symbol=f"{fn.qualname}->{state.qualname}",
            ))
    return out


# ---------------------------------------------------------------------------
# REP406 — obs name literals must be registered (and registered names used)
# ---------------------------------------------------------------------------
_OBS_CALLS = frozenset({"span", "counter", "gauge", "histogram"})


def _obs_registry() -> Tuple[Set[str], Dict[str, str], str]:
    """(registered values, constant name -> value, names-module file name)."""
    from ..obs import names as names_mod

    registered: Set[str] = set()
    for group in (names_mod.ALL_SPANS, names_mod.ALL_COUNTERS,
                  names_mod.ALL_GAUGES, names_mod.ALL_HISTOGRAMS):
        registered |= set(group)
    const_map = {
        key: value for key, value in vars(names_mod).items()
        if key.isupper() and not key.startswith("ALL_") and isinstance(value, str)
    }
    return registered, const_map, "names.py"


def check_obs_names(program: Program, report_unused: bool = True) -> List[Diagnostic]:
    registered, const_map, names_file = _obs_registry()
    used: Set[str] = set()
    out: List[Diagnostic] = []
    names_mod_info = next(
        (m for m in program.modules.values() if m.name.endswith("obs.names")), None
    )
    for name in sorted(program.modules):
        mod = program.modules[name]
        if mod is names_mod_info:
            continue
        for node in ast.walk(mod.tree):
            # Any reference to a registered constant counts as a use, even
            # through dicts/loops (`_FAULT_COUNTERS[kind]`).
            if isinstance(node, ast.Name) and node.id in const_map:
                used.add(const_map[node.id])
            elif isinstance(node, ast.Attribute) and node.attr in const_map:
                used.add(const_map[node.attr])
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                tail = chain[-1] if chain else (
                    node.func.attr if isinstance(node.func, ast.Attribute) else None
                )
                if tail not in _OBS_CALLS or not node.args:
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    if arg.value in registered:
                        used.add(arg.value)
                    else:
                        out.append(Diagnostic(
                            "REP406",
                            f"obs {tail} name {arg.value!r} is not registered "
                            f"in repro.obs.names; unregistered names rot "
                            f"silently when call sites move",
                            path=str(mod.path), line=arg.lineno,
                            symbol=f"{mod.name}:{arg.value}",
                        ))
    if report_unused and names_mod_info is not None:
        def_lines = {}
        for node in names_mod_info.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                def_lines[node.value.value] = node.lineno
        for value in sorted(registered - used):
            out.append(Diagnostic(
                "REP406",
                f"obs name {value!r} is registered in repro.obs.names but "
                f"never referenced by any instrumented call site",
                path=str(names_mod_info.path), line=def_lines.get(value),
                severity="info",
                symbol=f"unused:{value}",
            ))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def check_concurrency(
    files: Sequence,
    policy: Optional[ConcurrencyPolicy] = None,
    report_unused_names: bool = True,
    program: Optional[Program] = None,
) -> List[Diagnostic]:
    """Run every REP4xx rule over ``files`` and apply per-line ``noqa``."""
    policy = policy or ConcurrencyPolicy()
    if program is None:
        program = build_program(files, shared_classes=policy.shared_classes)
    diagnostics: List[Diagnostic] = []
    diagnostics += check_global_mutation(program, policy)
    diagnostics += check_hot_path_writes(program, policy)
    diagnostics += check_shared_rng(program, policy)
    diagnostics += check_import_side_effects(program)
    diagnostics += check_check_then_act(program, policy)
    diagnostics += check_obs_names(program, report_unused=report_unused_names)

    # Apply `# repro: noqa` line suppressions per module.
    by_path: Dict[str, str] = {str(m.path): m.source for m in program.modules.values()}
    kept: List[Diagnostic] = []
    suppression_cache: Dict[str, Dict] = {}
    for diag in diagnostics:
        source = by_path.get(diag.path or "")
        if source is None:
            kept.append(diag)
            continue
        if diag.path not in suppression_cache:
            suppression_cache[diag.path] = noqa_lines(source)
        kept.extend(apply_suppressions([diag], suppression_cache[diag.path]))
    return kept
