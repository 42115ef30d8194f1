"""Action (message label) names used by the BuildSR and publish protocols.

Every message in the system has the form ``<label>(<parameters>)``
(paper Section 1.1).  The handler tables are the protocol's vocabulary
(:func:`protocol_schema`); the constants below, which senders and per-action
counts spell, are pinned to it.
"""

from __future__ import annotations

import inspect

# --- supervisor-bound actions (Algorithm 3) --------------------------------
SUBSCRIBE = "Subscribe"
UNSUBSCRIBE = "Unsubscribe"
GET_CONFIGURATION = "GetConfiguration"

# --- subscriber-bound actions (Algorithms 1, 2, 4) --------------------------
SET_DATA = "SetData"
INTRODUCE = "Introduce"
LINEARIZE = "Linearize"
CORRECT_LABEL = "CorrectLabel"
INTRODUCE_SHORTCUT = "IntroduceShortcut"
REMOVE_CONNECTIONS = "RemoveConnections"

# --- publish-subscribe actions (Algorithm 5) --------------------------------
CHECK_TRIE = "CheckTrie"
CHECK_AND_PUBLISH = "CheckAndPublish"
PUBLISH = "Publish"
PUBLISH_NEW = "PublishNew"

#: Flags distinguishing list-internal from cycle (wrap-around) introductions
#: in the extended BuildRing protocol.
FLAG_LIN = "LIN"
FLAG_CYC = "CYC"

#: Actions whose receipt counts as load on the supervisor (Theorem 5 / E2).
SUPERVISOR_REQUEST_ACTIONS = frozenset({SUBSCRIBE, UNSUBSCRIBE, GET_CONFIGURATION})


def protocol_schema() -> dict[str, dict[str, tuple[str, ...]]]:
    """``{role: {action: keys}}``, read off the two handler tables: each
    handler's keyword names but ``self``, ``**_`` and the ``topic``."""
    from repro.core.subscriber import Subscriber
    from repro.core.supervisor import Supervisor
    return {role: {action: tuple(name for name in inspect.signature(handler).parameters
                                 if name not in ("self", "_", "topic"))
                   for action, handler in sorted(cls._action_handlers.items())}
            for role, cls in (("subscriber", Subscriber), ("supervisor", Supervisor))}
