"""Per-layer tracing taken from outside the program.

Two instruments, both living entirely in ``bench/``:

* :class:`SpanRecorder` replaces public entry points of ``repro`` (class and
  module attributes) with wrappers that record ``{id, name, parent, start,
  end}`` in memory; :meth:`SpanRecorder.uninstall` restores the originals,
  so untraced repeats run the program untouched.
* :func:`layer_profile` buckets a ``cProfile`` run by source file into the
  repo's modules ("layers").  Time spent in stdlib/builtin callees is
  charged along ``pstats`` caller edges to the layer that called them, so
  ``sorted()`` over ``Fraction`` keys lands on ``core.supervisor`` /
  ``core.labels`` and not on "other".
"""

from __future__ import annotations

import os
import pstats
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer reported as ``<layer>.self_s`` / ``<layer>.calls``: the repo's
#: modules an optimisation is likely to touch, plus the harness itself.
LAYERS: Tuple[str, ...] = (
    "core.supervisor", "core.subscriber", "core.shortcuts", "core.labels",
    "core.skip_ring", "core.facade",
    "pubsub.flooding", "pubsub.patricia", "pubsub.hashing",
    "pubsub.publications", "pubsub.antientropy",
    "sim.engine", "sim.scheduler", "sim.network", "sim.arena", "sim.rng",
    "sim.node", "sim.failure", "sim.tracing",
    "analysis.convergence",
    "cluster", "scenarios.runner", "scenarios.adversary", "telemetry",
    "api.report", "api.builder",
    "bench",
)

#: Modules without a layer of their own fold into their package's layer.
_PACKAGE_LAYER = {
    "core": "core.facade", "api": "api.builder", "sim": "sim.engine",
    "pubsub": "pubsub.publications", "scenarios": "scenarios.runner",
    "analysis": "analysis.convergence", "cluster": "cluster",
    "telemetry": "telemetry",
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARKER = os.sep + "repro" + os.sep


def layer_of_file(filename: str) -> Optional[str]:
    """The layer owning ``filename`` (``None`` for stdlib / builtins /
    third-party code and for ``repro`` packages no workload should reach)."""
    if filename.startswith(_BENCH_DIR):
        return "bench"
    index = filename.rfind(_REPRO_MARKER)
    if index < 0 or not filename.endswith(".py"):
        return None
    parts = filename[index + len(_REPRO_MARKER):-3].split(os.sep)
    dotted = ".".join(parts)
    if dotted in LAYERS:
        return dotted
    return _PACKAGE_LAYER.get(parts[0])


# ------------------------------------------------------------------ spans
class SpanRecorder:
    """In-memory span log fed by attribute replacement."""

    def __init__(self, repeat: int = 0) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        #: stamped on every span (all spans of one repeat share its id — the
        #: repeat's seed)
        self.repeat = repeat

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name, "repeat": self.repeat,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(), "end": None})
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id]["end"] = perf_counter()
        popped = self._stack.pop()
        assert popped == span_id, "span stack corrupted"

    def _wrap(self, name: str, fn: Callable,
              verdict: Optional[Callable[[object], bool]] = None) -> Callable:
        """``verdict`` turns the call's result into the span's ``ok`` flag
        (did the oracle say "converged"?)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # A same-named parent already covers this call (add_subscriber ->
            # subscribe, build_stable -> build_system): one span, not two.
            if stack and spans[stack[-1]]["name"] == name:
                return fn(*args, **kwargs)
            span_id = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span_id)
            if verdict is not None:
                spans[span_id]["ok"] = verdict(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _patch(self, owner: object, attr: str, name: str,
               verdict: Optional[Callable[[object], bool]] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, verdict))

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        """Replace the public entry points with recording wrappers."""
        from repro.analysis import convergence
        from repro.api import builder
        from repro.api.report import RunReport
        from repro.cluster.sharded import ShardedPubSub
        from repro.core.facade import PubSubFacadeBase
        from repro.scenarios.runner import ScenarioRunner
        from repro.sim.engine import Simulator

        for attr in ("build_system", "build_stable"):
            self._patch(builder, attr, "api.builder.build")
        for cls in (PubSubFacadeBase, ShardedPubSub):
            for attr in ("add_subscriber", "subscribe", "unsubscribe",
                         "crash", "publish", "crash_supervisor"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, "core.facade.membership")
            for attr in ("run_until_legitimate", "run_rounds", "run_for",
                         "run_until_publications_converged"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, "core.facade.drive")
        self._patch(Simulator, "run_until_time", "sim.engine.drain")
        self._patch(convergence, "ring_legitimate",
                    "analysis.convergence.check",
                    lambda report: bool(report.legitimate))
        self._patch(convergence, "publications_converged",
                    "analysis.convergence.check", bool)
        self._patch(ScenarioRunner, "run_report", "scenarios.runner.run")
        self._patch(RunReport, "to_json", "api.report.serialize")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def summary(self, root_id: int) -> Dict[str, Dict[str, float]]:
        """Per span name under ``root_id`` (inclusive): count, how many
        carried ``ok=True``, total duration and self time (duration minus
        the part covered by child spans)."""
        spans = self.spans
        child_time: Dict[int, float] = {}
        inside = {root_id}
        for span in spans[root_id + 1:]:
            if span["parent"] in inside:
                inside.add(span["id"])
                child_time[span["parent"]] = child_time.get(
                    span["parent"], 0.0) + (span["end"] - span["start"])
        out: Dict[str, Dict[str, float]] = {}
        for span_id in sorted(inside):
            span = spans[span_id]
            duration = span["end"] - span["start"]
            slot = out.setdefault(span["name"], {"count": 0, "ok": 0,
                                                 "total_s": 0.0, "self_s": 0.0})
            slot["count"] += 1
            slot["ok"] += bool(span.get("ok"))
            slot["total_s"] += duration
            slot["self_s"] += duration - child_time.get(span_id, 0.0)
        return out


# ---------------------------------------------------------------- profiling
def layer_profile(profile) -> Tuple[Dict[str, Dict[str, float]], float, float]:
    """Bucket a finished ``cProfile.Profile`` by layer.

    Returns ``(layers, unattributed_s, total_s)`` where ``layers[name]`` has
    ``self_s`` (own code plus the stdlib/builtin callees charged to it) and
    ``calls`` (calls of the layer's own functions).
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    layer_of_func = {func: layer_of_file(func[0]) for func in stats}
    unattributed = 0.0
    total = 0.0

    def charge(func, amount: float, seen: frozenset, weight_at: int) -> float:
        """Push ``amount`` seconds of a layer-less function up its caller
        edges; returns the part that reached no layer.  An edge is
        ``(calls, primitive calls, self time, inclusive time)`` of this
        callee on behalf of one caller."""
        callers = stats[func][4]
        edges = [(caller, edge) for caller, edge in callers.items()
                 if caller not in seen and caller in stats]
        if not any(edge[weight_at] > 0 for _, edge in edges):
            weight_at = 0  # the profiler clocked nothing: split by calls
        weight = sum(edge[weight_at] for _, edge in edges)
        if not edges or weight <= 0:
            return amount
        lost = 0.0
        for caller, edge in edges:
            share = amount * edge[weight_at] / weight
            layer = layer_of_func[caller]
            if layer is not None:
                layers[layer]["self_s"] += share
            else:
                # Passing through a second layer-less frame: split by the
                # inclusive time its own callers spent in it.
                lost += charge(caller, share, seen | {caller}, 3)
        return lost

    for func, (_cc, ncalls, tottime, _cum, _callers) in stats.items():
        total += tottime
        layer = layer_of_func[func]
        if layer is not None:
            layers[layer]["self_s"] += tottime
            layers[layer]["calls"] += ncalls
        elif tottime > 0.0:
            unattributed += charge(func, tottime, frozenset({func}), 2)
    return layers, unattributed, total
