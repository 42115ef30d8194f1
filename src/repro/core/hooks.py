"""Typed observer hooks for the pub-sub facades and the scenario runner.

Every facade (:class:`~repro.core.facade.SupervisedPubSub`) owns a
:class:`HookRegistry` at ``system.hooks``.  Drivers register plain callbacks
for the lifecycle events they care about instead of polling inspection
methods (``is_legitimate()``) in ad-hoc loops:

======================  =====================================================
event                   fired when / callback signature
======================  =====================================================
``on_subscribe``        a subscriber registers for a topic —
                        ``(node_id, topic)``
``on_relegitimacy``     a ``run_until_legitimate`` drive succeeds —
                        ``(topics, rounds)`` (tuple of topics checked, rounds
                        the drive took)
``on_supervisor_crash`` a supervisor shard is crashed
                        (:meth:`~repro.core.facade.SupervisedPubSub.crash_supervisor`)
                        — ``(shard_id, moved_topics)``
``on_phase``            a scenario phase finishes —
                        ``(phase_name, phase_report)``
======================  =====================================================

The registry is deliberately cheap: emitting an event with no registered
callback is a single empty-list truth test, so hooks cost nothing on hot
paths unless a driver actually listens.  Registration methods return the
registry, so calls chain::

    system.hooks.on_subscribe(log_join).on_relegitimacy(log_stable)

Callbacks run synchronously, in registration order, inside the emitting
call; exceptions propagate to the driver (hooks are part of the run, not a
detached observer bus).  Registration checks a callback's positional arity
against the table above and raises ``TypeError`` there, not mid-drive.

The implementation lives in :mod:`repro.core` (below the facades, which
instantiate a registry per system); :mod:`repro.api` re-exports it as part
of the unified API surface.
"""

from __future__ import annotations

from inspect import CO_VARARGS
from types import MethodType
from typing import Callable, List, Sequence, Tuple

#: The typed events a :class:`HookRegistry` dispatches.
HOOK_EVENTS = ("subscribe", "relegitimacy", "supervisor_crash", "phase")


def _check_arity(callback: Callable, arity: int, event: str) -> None:
    """Raise ``TypeError`` unless ``callback`` takes ``arity`` positional
    arguments.  Read off ``__code__``: a Python function or bound method is
    checked, a builtin, ``functools.partial`` or callable object is not."""
    bound = isinstance(callback, MethodType)
    function = callback.__func__ if bound else callback
    code = getattr(function, "__code__", None)
    if code is None:
        return
    most = code.co_argcount - bound
    least = most - len(function.__defaults__ or ())
    if arity < least or (arity > most and not code.co_flags & CO_VARARGS):
        raise TypeError(f"on_{event} calls back with {arity} positional "
                        f"arguments, which {callback!r} cannot take")


class HookRegistry:
    """Per-system registry of typed lifecycle callbacks."""

    __slots__ = ("_subscribe", "_relegitimacy", "_supervisor_crash", "_phase")

    def __init__(self) -> None:
        self._subscribe: List[Callable] = []
        self._relegitimacy: List[Callable] = []
        self._supervisor_crash: List[Callable] = []
        self._phase: List[Callable] = []

    # ------------------------------------------------------------ registration
    def on_subscribe(self, callback: Callable[[int, str], None]) -> "HookRegistry":
        """``callback(node_id, topic)`` on every successful subscribe."""
        return self._add(self._subscribe, callback, 2, "subscribe")

    def on_relegitimacy(self,
                        callback: Callable[[Tuple[str, ...], float], None],
                        ) -> "HookRegistry":
        """``callback(topics, rounds)`` whenever a legitimacy drive succeeds."""
        return self._add(self._relegitimacy, callback, 2, "relegitimacy")

    def on_supervisor_crash(self,
                            callback: Callable[[int, Tuple[str, ...]], None],
                            ) -> "HookRegistry":
        """``callback(shard_id, moved_topics)`` when a supervisor shard is
        crashed (only reachable with two or more shards: the last live
        supervisor cannot crash)."""
        return self._add(self._supervisor_crash, callback, 2, "supervisor_crash")

    def on_phase(self, callback: Callable[[str, object], None]) -> "HookRegistry":
        """``callback(phase_name, phase_report)`` after each scenario phase."""
        return self._add(self._phase, callback, 2, "phase")

    def _add(self, callbacks: List[Callable], callback: Callable, arity: int,
             event: str) -> "HookRegistry":
        _check_arity(callback, arity, event)
        callbacks.append(callback)
        return self

    # ---------------------------------------------------------------- emitting
    # Emitters are called by the facades/runner; each is a no-op (one truth
    # test) when nobody registered for the event.
    def emit_subscribe(self, node_id: int, topic: str) -> None:
        if self._subscribe:
            for callback in self._subscribe:
                callback(node_id, topic)

    def emit_relegitimacy(self, topics: Sequence[str], rounds: float) -> None:
        if self._relegitimacy:
            topics = tuple(topics)
            for callback in self._relegitimacy:
                callback(topics, rounds)

    def emit_supervisor_crash(self, shard_id: int,
                              moved_topics: Sequence[str]) -> None:
        if self._supervisor_crash:
            moved = tuple(moved_topics)
            for callback in self._supervisor_crash:
                callback(shard_id, moved)

    def emit_phase(self, name: str, phase_report: object) -> None:
        if self._phase:
            for callback in self._phase:
                callback(name, phase_report)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = {event: len(getattr(self, f"_{event}")) for event in HOOK_EVENTS
                  if getattr(self, f"_{event}")}
        return f"HookRegistry({active or 'empty'})"
