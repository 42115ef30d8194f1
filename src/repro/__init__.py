"""repro — Self-Stabilizing Supervised Publish-Subscribe Systems.

A simulation-grade but complete reproduction of Feldmann, Kolb, Scheideler and
Strothmann, *Self-Stabilizing Supervised Publish-Subscribe Systems* (2018):

* the supervised **skip ring** overlay and its self-stabilizing construction
  protocol **BuildSR** (supervisor + subscriber sub-protocols),
* the self-stabilizing **publish-subscribe** layer (Patricia-trie
  anti-entropy plus flooding of new publications),
* the asynchronous message-passing **simulation substrate** the protocol runs
  on (a timeout-wheel event queue), adversarial
  initial-state and publication **workloads**, reference **baselines** (Chord, skip
  graph, centralized broker), and the **experiments** reproducing every
  quantitative claim of the paper,
* a **sharded cluster layer** that scales the system beyond the paper by
  consistent-hashing topics across K supervisors
  (:mod:`repro.cluster`); the one facade,
  :class:`~repro.core.facade.SupervisedPubSub`, is the paper's system at
  ``shards=1`` and the cluster at ``shards=K``,
* a **scenario engine** (:mod:`repro.scenarios`) composing adversarial link
  conditions (loss, duplication, delay spikes, partitions with scheduled
  heals) and workloads (churn storms, crash waves, publication storms,
  supervisor failover) into declarative, seed-deterministic stress scenarios
  runnable against either topology (``python -m repro scenario``),
* a **unified deployment API** (:mod:`repro.api`): a declarative, frozen,
  JSON-round-trippable :class:`~repro.api.spec.SystemSpec` realised by
  :func:`~repro.api.builder.build_system` (the single front door every
  experiment, scenario, the benchmark and every example go through), typed
  lifecycle hooks (``system.hooks``) and one
  :class:`~repro.api.report.RunReport` result object,
* a **parallel execution layer** (:mod:`repro.exec`): one task runner
  that streams the results of named tasks in submission order, run inline
  or on the worker processes of a stdlib pool opened per run, declarative :class:`~repro.exec.sweep.SweepSpec` parameter grids with
  deterministically derived per-task seeds, and a
  :class:`~repro.exec.campaign.CampaignRunner` that merges the results into
  byte-reproducible campaign artifacts (``python -m repro sweep``); every
  ``--jobs N`` flag in the tree (experiments, scenarios, sweeps, fuzzing)
  fans out through it,
* a **telemetry subsystem** (:mod:`repro.telemetry`): deterministic
  fixed-bucket latency histograms (publication→delivery, subscribe→
  stabilization) and hook-fed phase-span timelines, switched by one
  ``SystemSpec`` knob (``telemetry=True``), merged across exec workers into
  byte-reproducible run and campaign artifacts, and rendered by
  ``python -m repro metrics`` — off by default at zero hot-path cost.

The package is standard library only: importing it, running the protocol and
every experiment load no third-party module.

Quickstart
----------
>>> from repro import SystemSpec, build_system
>>> system = build_system(SystemSpec(seed=1))
>>> peers = [system.add_subscriber() for _ in range(16)]
>>> system.run_until_legitimate()
True
>>> pub = system.publish(peers[0], b"breaking news")
>>> system.run_rounds(40)
>>> system.all_subscribers_have(pub.key)
True
"""

from repro.core import (
    ProtocolParams,
    SkipRingTopology,
    Subscriber,
    SupervisedPubSub,
    Supervisor,
    SUPERVISOR_ID,
    index_of,
    label_of,
    r_value,
)
from repro.cluster import ConsistentHashRing
from repro.pubsub import PatriciaTrie, Publication
from repro.sim import Simulator, SimulatorConfig
from repro.api import (
    HookRegistry,
    RunReport,
    SystemSpec,
    build_stable,
    build_system,
)
from repro.exec import CampaignReport, CampaignRunner, SweepSpec

__version__ = "1.9.0"

__all__ = [
    "ProtocolParams",
    "SkipRingTopology",
    "Subscriber",
    "Supervisor",
    "SupervisedPubSub",
    "SUPERVISOR_ID",
    "label_of",
    "index_of",
    "r_value",
    "PatriciaTrie",
    "Publication",
    "Simulator",
    "SimulatorConfig",
    "ConsistentHashRing",
    "SystemSpec",
    "build_system",
    "build_stable",
    "HookRegistry",
    "RunReport",
    "SweepSpec",
    "CampaignReport",
    "CampaignRunner",
    "__version__",
]
