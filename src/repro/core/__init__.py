"""The paper's primary contribution: the self-stabilizing supervised skip ring
(BuildSR) and the publish-subscribe system built on top of it.

Sub-modules
-----------
``labels``
    Label function ``l``, ring positions ``r`` (Section 2.1).
``skip_ring``
    Ideal ``SR(n)`` topology and its structural analysis (Definition 2, Lemma 3).
``shortcuts``
    Local shortcut-label computation (Section 3.2.2).
``supervisor`` / ``subscriber``
    The two halves of the BuildSR protocol (Algorithms 1–4) plus the
    publication protocol (Algorithm 5).
``facade``
    :class:`~repro.core.facade.SupervisedPubSub`, the public facade: the
    paper's system with one supervisor, or K supervisors sharing the topics.
``config``
    :class:`~repro.core.config.ProtocolParams`.
"""

from repro.core.config import ProtocolParams
from repro.core.labels import (
    label_of,
    index_of,
    r_value,
    r_float,
    label_length,
    labels_up_to,
    max_level,
)
from repro.core.shortcuts import shortcut_labels
from repro.core.skip_ring import SkipRingTopology
from repro.core.supervisor import Supervisor, TopicDatabase
from repro.core.subscriber import Subscriber, TopicView, Neighbor
from repro.core.facade import SupervisedPubSub, SUPERVISOR_ID

__all__ = [
    "ProtocolParams",
    "label_of",
    "index_of",
    "r_value",
    "r_float",
    "label_length",
    "labels_up_to",
    "max_level",
    "shortcut_labels",
    "SkipRingTopology",
    "Supervisor",
    "TopicDatabase",
    "Subscriber",
    "TopicView",
    "Neighbor",
    "SupervisedPubSub",
    "SUPERVISOR_ID",
]
