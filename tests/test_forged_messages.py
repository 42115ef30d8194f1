"""Theorem 8 from arbitrary channel contents: one search over the protocol's
vocabulary.

Every message drawn here is an action of either role in
``protocol_schema()`` — the subscriber's and the supervisor's handler
tables — carrying any subset of the action's keys plus a ``self`` no handler
takes, valued from ``value_pool``: the generator's pool of forged values and
the ids and labels of the system.  ``workloads.initial_states`` fills E4's
corrupted channels from the same two sources.

The search injects such messages through the engine into a stable 8–16-node
system, single or sharded into two, interleaved with rounds and publications.
The oracle: the run returns; ``legitimacy_report()`` never raises; every stored
ref is an ``int``, every stored label a valid label and every view and database
keyed by a ``str`` topic; every ``flood_delivery`` counted its hops with an
``int >= 1``; and, once every injected message is delivered, the system is
legitimate again within 300 rounds, its members' publications agree and it is
still legitimate 20 rounds later.
"""

import copy
from functools import lru_cache

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import check_trie_invariants

from repro.api import SystemSpec, build_stable
from repro.core.labels import is_valid_label
from repro.core.messages import protocol_schema
from repro.sim.engine import SimulatorConfig
from repro.workloads.initial_states import FORGED, value_pool

SCHEMA = protocol_schema()
ACTIONS = [(role, action) for role, table in SCHEMA.items() for action in table]
TOPOLOGIES = {"single": {}, "sharded": {"topology": "sharded", "shards": 2}}


def _spec(topology: str) -> SystemSpec:
    return SystemSpec(seed=3, sim=SimulatorConfig(seed=3, keep_trace_events=True),
                      **TOPOLOGIES[topology])


@lru_cache(maxsize=None)
def _pool(topology: str, n: int) -> tuple:
    """The pool of the system a case builds (the build is deterministic)."""
    return tuple(value_pool(build_stable(_spec(topology), n)[0], "default"))


def _params(pool, role, action):
    return st.dictionaries(st.sampled_from((*SCHEMA[role][action], "self")),
                           st.sampled_from(pool))


def _steps(topology, n):
    pool = _pool(topology, n)
    message = st.sampled_from(ACTIONS).flatmap(lambda ra: st.tuples(
        st.just("message"), st.just(ra[0]), st.integers(0, n - 1), st.just(ra[1]),
        _params(pool, *ra), st.sampled_from(("default", "default", None, *FORGED["topic"]))))
    return st.lists(st.one_of(message, message, st.tuples(st.just("rounds"), st.integers(1, 3)),
                              st.tuples(st.just("publish"), st.integers(0, n - 1))),
                    min_size=1, max_size=8)


CASES = st.tuples(st.sampled_from(sorted(TOPOLOGIES)), st.integers(8, 16)).flatmap(
    lambda tn: st.tuples(st.just(tn[0]), st.just(tn[1]), _steps(*tn)))


def _assert_stored_state_is_well_formed(system):
    for peer in system.subscribers.values():
        for topic, view in peer.views.items():
            assert type(topic) is str
            assert view.label is None or is_valid_label(view.label)
            for nb in (view.left, view.right, view.ring):
                assert nb is None or (isinstance(nb.ref, int) and is_valid_label(nb.label)), nb
            for label, ref in view.shortcuts.items():
                assert is_valid_label(label) and (ref is None or isinstance(ref, int)), ref
            check_trie_invariants(view.trie)
    for supervisor in system.supervisors.values():
        for topic, db in supervisor.databases.items():
            assert type(topic) is str
            assert all(is_valid_label(label) and isinstance(ref, int)
                       for label, ref in db.entries.items()), dict(db.entries)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(CASES)
# F1: a request naming a supervisor, another shard's or the receiver itself
@example(("sharded", 8, [("message", "supervisor", 0, "Subscribe", {"node": 0}, "default")]))
@example(("single", 8, [("message", "supervisor", 0, "GetConfiguration", {"node": 0},
                         "default")]))
# the ghost probe: an id with no node, passed on until the supervisor is asked about it
@example(("single", 8, [("message", "subscriber", 0, "Introduce",
                         {"node": 10**9, "label": "0101"}, "default"), ("rounds", 3)]))
# a set where a ref belongs, answered with a CorrectLabel: a set passes ``in`` on a set
@example(("single", 8, [("message", "subscriber", 0, "Introduce",
                         {"node": {"0", 2}, "label": "01"}, "default")]))
def test_forged_messages_end_no_run_and_the_system_relegitimizes(case):
    topology, n, steps = case
    system, peers = build_stable(_spec(topology), n)
    supervisor = system.supervisor_of("default")
    for step in steps:
        if step[0] == "message":
            _, role, index, action, params, topic = step
            dest = peers[index] if role == "subscriber" else supervisor
            system.sim.inject_message(dest.node_id, action, copy.deepcopy(params), topic=topic)
        elif step[0] == "rounds":
            system.run_rounds(step[1])
        else:
            system.publish(peers[step[1]], b"genuine %d" % step[1])
        system.legitimacy_report()
        _assert_stored_state_is_well_formed(system)
    system.run_rounds(2)  # every injected message delivered (a delay is at most a round)
    assert system.run_until_legitimate(max_rounds=300)
    assert system.run_until_publications_converged(max_rounds=300)
    system.run_rounds(20)
    assert system.is_legitimate()  # and it stays so
    _assert_stored_state_is_well_formed(system)
    assert all(type(event.data["hops"]) is int and event.data["hops"] >= 1
               for event in system.sim.tracer.events if event.kind == "flood_delivery")


def _observed(system, node, role):
    """What a handler could change at ``node``: its views or databases, and
    the messages the system sent."""
    sent = system.sim.network.stats.total_sent
    if role == "supervisor":
        return sent, {topic: dict(db.entries) for topic, db in node.databases.items()}
    return sent, [(topic, view.label, view.left, view.right, view.ring, dict(view.shortcuts),
                   view.trie.keys()) for topic, view in node.views.items()]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(ACTIONS).flatmap(lambda ra: st.tuples(
    st.just(ra[0]), st.just(ra[1]), _params(_pool("single", 8), *ra))),
    st.sampled_from(FORGED["topic"]))
def test_a_forged_topic_drops_the_message(message, topic):
    """A ``topic`` that is neither ``None`` nor a ``str`` is a forged message:
    both roles drop it, whatever the action and its keys."""
    role, action, params = message
    system, peers = build_stable(_spec("single"), 8)
    node = peers[0] if role == "subscriber" else system.supervisor_of("default")
    before = _observed(system, node, role)
    type(node)._action_handlers[action](node, topic=topic, **copy.deepcopy(params))
    assert _observed(system, node, role) == before
