"""Shared fixtures for the test suite (built through the unified API)."""

from __future__ import annotations

import pytest

from repro import ProtocolParams, SupervisedPubSub
from repro.api import SystemSpec, build_stable, build_system
from repro.core.supervisor import Supervisor
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.network import REC_ACTION, REC_DEST, REC_SENDER
from repro.sim.node import ProtocolNode


def records_in_flight(sim, **match):
    """The records still in flight in ``sim`` (``REC_*``-indexed tuples), in
    scheduler order, keeping those whose ``dest``/``action``/``sender``
    equal the values given in ``match``."""
    index = {"dest": REC_DEST, "action": REC_ACTION, "sender": REC_SENDER}
    return [record for record in sim.network._iter_pending()
            if all(record[index[key]] == value for key, value in match.items())]


@pytest.fixture()
def supervised():
    """``make(ids, params=None) -> (sim, supervisor)``: a supervisor
    (id 0, no Timeout) and a bare node behind every id in ``ids`` — its
    failure detector suspects an id with no node, so a handler test names
    only ids that exist."""
    def make(ids, params: ProtocolParams | None = None):
        sim = Simulator(SimulatorConfig(seed=5))
        supervisor = sim.add_node(Supervisor(0, params=params), schedule_timeout=False)
        for node_id in ids:
            sim.add_node(ProtocolNode(node_id), schedule_timeout=False)
        return sim, supervisor
    return make


@pytest.fixture(scope="session")
def stable_system_8():
    """A converged 8-subscriber system shared by read-only tests."""
    system, subscribers = build_stable(SystemSpec(seed=11), 8)
    return system, subscribers


@pytest.fixture()
def fresh_system():
    """A factory for fresh systems (tests that mutate state)."""
    def make(n: int = 8, seed: int = 0, params: ProtocolParams | None = None):
        return build_stable(SystemSpec(seed=seed, params=params), n)
    return make


@pytest.fixture()
def empty_system():
    def make(seed: int = 0, params: ProtocolParams | None = None) -> SupervisedPubSub:
        return build_system(SystemSpec(seed=seed, params=params))
    return make
