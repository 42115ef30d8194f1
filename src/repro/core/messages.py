"""Action (message label) names used by the BuildSR and publish protocols.

Every message in the system has the form ``<label>(<parameters>)``
(paper Section 1.1).  Centralising the label strings here keeps the
supervisor, subscriber and analysis code consistent and lets the tracing
layer aggregate message counts by protocol action.
"""

from __future__ import annotations

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
