"""Property-based tests (hypothesis) for the core data structures and invariants."""


import functools
from fractions import Fraction
from os.path import commonprefix
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from conftest import check_trie_invariants, database_corrupted, label_from_r, trie_nodes

from repro.analysis.convergence import Finding, LegitimacyReport, ring_legitimate
from repro.analysis.graph_metrics import degree_statistics, diameter, distances, graph
from repro.api import SystemSpec, build_stable, build_system
from repro.core import messages as msg
from repro.core.labels import (
    closer,
    index_of,
    is_valid_label,
    label_length,
    label_of,
    max_level,
    r_value,
    ring_key,
)
from repro.core.shortcuts import _reflect, shortcut_labels
from repro.core.skip_ring import SkipRingTopology
from repro.core.subscriber import Neighbor, Subscriber, TopicView
from repro.core.supervisor import TopicDatabase
from repro.pubsub.hashing import leaf_hash, node_hash
from repro.pubsub.patricia import PatriciaTrie
from repro.pubsub.publications import Publication
from repro.sim.engine import Simulator, SimulatorConfig
from repro.workloads.initial_states import FORGED, AdversarialConfig, build_adversarial_system
from test_antientropy import reconcile_once  # the test-only pairwise driver

SLOW = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------------ labels
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_label_roundtrip(x):
    assert index_of(label_of(x)) == x


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_label_r_value_in_unit_interval_and_invertible(x):
    label = label_of(x)
    value = r_value(label)
    assert 0 <= value < 1
    assert label_from_r(value) == label


@given(st.integers(min_value=1, max_value=4096))
def test_labels_have_distinct_positions(n):
    labels = [label_of(i) for i in range(min(n, 300))]
    positions = {r_value(lbl) for lbl in labels}
    assert len(positions) == len(labels)


@given(st.integers(min_value=2, max_value=2000))
def test_label_length_bounded_by_max_level(n):
    assert all(label_length(label_of(i)) <= max_level(n) for i in range(n - 1, n))


# ------------------------------------- the fast algebra vs the Fraction spec
# Arbitrary valid labels: long, non-canonical, with trailing zeros.  The
# protocol path orders by ``ring_key`` and measures in scaled integers;
# ``r_value`` (exact fractions) is the specification both must agree with.
any_label = st.text(alphabet="01", min_size=1, max_size=200)
# Short labels collide in ``r`` often ('1' / '10' / '100'), so ties get drawn.
short_label = st.text(alphabet="01", min_size=1, max_size=5)


@given(any_label | short_label, any_label | short_label)
def test_ring_key_orders_exactly_like_r_value(a, b):
    ra, rb = r_value(a), r_value(b)
    assert (ring_key(a) < ring_key(b)) == (ra < rb)
    assert (ring_key(a) == ring_key(b)) == (ra == rb)


@given(st.lists(any_label | short_label, max_size=12))
def test_sorting_by_ring_key_is_the_stable_sort_by_r_value(labels):
    assert sorted(labels, key=ring_key) == sorted(labels, key=r_value)


@given(any_label | short_label, any_label | short_label, any_label | short_label)
def test_integer_distances_match_the_fraction_spec(a, b, origin):
    ra, rb, ro = r_value(a), r_value(b), r_value(origin)
    assert closer(a, b, origin) == (abs(ra - ro) < abs(rb - ro))


@given(any_label | short_label, any_label | short_label, any_label | short_label)
def test_on_one_side_of_the_origin_the_nearer_label_is_the_later_key(a, b, origin):
    """``_integrate``'s shortcut for a neighbour on the candidate's side: there
    ``closer`` is the ring order towards the origin (keys equal to the
    origin's count as its right side, where both read "not nearer")."""
    key_a, key_b, key_o = ring_key(a), ring_key(b), ring_key(origin)
    if key_a != key_o and (key_a < key_o) == (key_b < key_o):
        nearer = key_a > key_b if key_a < key_o else key_a < key_b
        assert nearer == closer(a, b, origin)


@given(any_label | short_label, any_label | short_label)
def test_integer_reflect_matches_the_fraction_spec(neighbor, own):
    assert _reflect(neighbor, own) == label_from_r((2 * r_value(neighbor) - r_value(own)) % 1)


@given(st.one_of(st.text(max_size=8), st.text(alphabet="01٠١１²", max_size=8),
                 st.none(), st.integers(), st.binary(max_size=4)))
def test_is_valid_label_is_the_char_by_char_definition(candidate):
    expected = (isinstance(candidate, str) and len(candidate) > 0
                and all(c in "01" for c in candidate))
    assert is_valid_label(candidate) == expected


# --------------------------------------------------------------- shortcuts
def shortcut_labels_closed_form(own, top_level):
    """The reference the protocol's recursion is checked against: closed-form
    shortcut labels ``r(own) ± 2^{-i} (mod 1)`` for each level ``i`` with
    ``|own| <= i < top_level``.

    ``top_level`` is ``⌈log n⌉`` (the level of the ring edges).  Labels longer
    than or equal to ``top_level`` never appear because those neighbours are
    already ring neighbours.
    """
    if not is_valid_label(own):
        return set()
    own_r = r_value(own)
    targets = set()
    for level in range(label_length(own), top_level):
        step = Fraction(1, 2 ** level)
        for direction in (+1, -1):
            targets.add(label_from_r((own_r + direction * step) % 1))
    targets.discard(own)
    return targets


@SLOW
@given(st.integers(min_value=1, max_value=7).map(lambda k: 2 ** k))
def test_shortcut_recursion_matches_closed_form_powers_of_two(n):
    topo = SkipRingTopology(n)
    order = topo.ring_order()
    top = max_level(n)
    for position, node in enumerate(order[: min(n, 20)]):
        own = topo.labels[node]
        left = topo.labels[order[position - 1]]
        right = topo.labels[order[(position + 1) % n]]
        assert shortcut_labels(own, left, right) == shortcut_labels_closed_form(own, top)


@SLOW
@given(st.integers(min_value=2, max_value=128))
def test_shortcut_recursion_subset_of_closed_form_general_n(n):
    """For non-powers of two the locally derived shortcuts may omit targets
    that coincide with ring neighbours, but never invent extra ones."""
    topo = SkipRingTopology(n)
    order = topo.ring_order()
    top = max_level(n)
    for position, node in enumerate(order[: min(n, 20)]):
        own = topo.labels[node]
        left = topo.labels[order[position - 1]]
        right = topo.labels[order[(position + 1) % n]]
        derived = shortcut_labels(own, left, right)
        closed = shortcut_labels_closed_form(own, top)
        assert derived <= closed
        # anything omitted must already be one of the ring neighbours
        assert closed - derived <= {left, right} | {own}


@SLOW
@given(st.integers(min_value=1, max_value=96))
def test_skip_ring_invariants_for_arbitrary_n(n):
    adj = graph(range(n), SkipRingTopology(n).edges())
    stats = degree_statistics(adj)
    assert stats.mean <= 4.0 + 1e-9
    assert stats.maximum <= 2 * max_level(n)
    assert len(distances(adj, 0)) == len(adj)
    assert diameter(adj) <= max_level(n) + 1


# ------------------------------------------------ shortcut-routed delegation
_route_label = st.text(alphabet="01", min_size=1, max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_route_label, min_size=3, max_size=3, unique_by=r_value), st.booleans(),
       st.booleans(),
       st.dictionaries(_route_label, st.sampled_from([None, 1, 9, 2, 3, 4, 5]), max_size=8))
def test_a_delegation_goes_to_the_nearest_stored_ref_short_of_the_candidate(
        three, on_left, wrong_side, shortcuts):
    """Against the ``r``-value spec: with the list neighbour on the
    candidate's side, the ``Linearize`` goes to a ref stored nearest the
    candidate among the neighbour and the shortcuts strictly between us and
    it (never ``None``, ours (1) or the candidate's own (9)); with the
    neighbour on the wrong side, to the neighbour, as list linearization does."""
    low, mid, high = sorted(three, key=r_value)
    if wrong_side:  # on our other side, and the candidate is no nearer to us
        cand, own, cur = (low, mid, high) if on_left else (high, mid, low)
        assume(not closer(cand, cur, own))
    else:  # between us and the candidate
        cand, cur, own = (low, mid, high) if on_left else (high, mid, low)
    own_r, cand_r, cur_r = r_value(own), r_value(cand), r_value(cur)
    sim = Simulator(SimulatorConfig(seed=0))
    sub = Subscriber(1, lambda topic: 0)
    sim.add_node(sub, schedule_timeout=False)
    sends = []
    sim._send_fast = lambda sender, topic, batch: sends.extend(batch)
    view = sub.view(subscribed=True)
    view.label, view.shortcuts = own, dict(shortcuts)
    setattr(view, "left" if on_left else "right", Neighbor(cur, 2))
    sub.on_Linearize(9, cand)
    ((dest, action, params),) = sends
    assert (action, params) == (msg.LINEARIZE, {"node": 9, "label": cand})
    if wrong_side:
        assert dest == 2
        return
    stored = [(cur_r, 2)] + [
        (r_value(lbl), ref) for lbl, ref in shortcuts.items()
        if ref not in (None, 1, 9) and min(own_r, cand_r) < r_value(lbl) < max(own_r, cand_r)]
    nearest = min(abs(r - cand_r) for r, _ in stored)
    assert nearest in {abs(r - cand_r) for r, ref in stored if ref == dest}


@functools.lru_cache(maxsize=None)
def _stable_ring(n):
    system, subscribers = build_stable(SystemSpec(seed=n), n)
    return {sub.node_id: sub for sub in subscribers}


@SLOW
@given(st.sampled_from([8, 13, 32, 64]), st.data())
def test_a_walk_in_a_legitimate_ring_takes_at_most_2_log_n_hops(n, data):
    """Delegated to a member it already holds, a reference walks, each hop
    strictly nearer it without overshooting, to that member's list neighbour
    in at most ``2⌈log n⌉`` hops (one list position per hop took up to n − 2)."""
    ring = _stable_ring(n)
    holder, cand = data.draw(st.permutations(sorted(ring)))[:2]
    label = ring[cand].view().label
    cand_r, hops, sends = r_value(label), 0, []
    with mock.patch.object(TopicView, "send",
                           lambda view, dest, action, **params: sends.append((dest, action))):
        while True:
            ring[holder].view()._integrate(label, cand)
            if not sends:
                break
            ((dest, action),) = sends
            sends.clear()
            here, there = r_value(ring[holder].view().label), r_value(ring[dest].view().label)
            assert action == msg.LINEARIZE and abs(there - cand_r) < abs(here - cand_r)
            assert (there - cand_r) * (here - cand_r) > 0  # not past the candidate
            holder, hops = dest, hops + 1
    view = ring[holder].view()
    assert cand in {view.left.ref if view.left else None, view.right.ref if view.right else None}
    assert hops <= 2 * max_level(n)


# ---------------------------------------------------------------- patricia
keys_strategy = st.sets(
    st.text(alphabet="01", min_size=8, max_size=8), min_size=0, max_size=30)


@given(keys_strategy)
def test_patricia_set_semantics(keys):
    trie = PatriciaTrie(key_bits=8)
    for key in keys:
        trie.insert(Publication(publisher=1, payload=key.encode(), key=key))
    assert set(trie.keys()) == keys
    assert len(trie) == len(keys)
    check_trie_invariants(trie)
    for key in keys:
        assert key in trie
        node = trie.search_node(key)
        assert node is not None and node.is_leaf


@given(keys_strategy, st.randoms(use_true_random=False))
def test_patricia_root_hash_is_insertion_order_independent(keys, rnd):
    ordered = sorted(keys)
    shuffled = list(ordered)
    rnd.shuffle(shuffled)
    trie_a, trie_b = PatriciaTrie(key_bits=8), PatriciaTrie(key_bits=8)
    for key in ordered:
        trie_a.insert(Publication(1, key.encode(), key))
    for key in shuffled:
        trie_b.insert(Publication(1, key.encode(), key))
    assert trie_a.root_summary() == trie_b.root_summary()


@given(keys_strategy, keys_strategy)
def test_patricia_root_hash_equality_iff_same_content(keys_a, keys_b):
    trie_a, trie_b = PatriciaTrie(key_bits=8), PatriciaTrie(key_bits=8)
    for key in keys_a:
        trie_a.insert(Publication(1, key.encode(), key))
    for key in keys_b:
        trie_b.insert(Publication(1, key.encode(), key))
    same_hash = trie_a.root_summary() == trie_b.root_summary()
    assert same_hash == (keys_a == keys_b)


@given(keys_strategy, st.text(alphabet="01", max_size=6))
def test_patricia_prefix_query_matches_filter(keys, prefix):
    trie = PatriciaTrie(key_bits=8)
    for key in keys:
        trie.insert(Publication(1, key.encode(), key))
    expected = sorted(k for k in keys if k.startswith(prefix))
    assert [p.key for p in trie.publications_with_prefix(prefix)] == expected


def _eager_hash(node):
    """The Merkle hash of ``node``'s subtree from scratch, reading no cache:
    neither a node's nor the ``node_hash`` memo's."""
    if node.zero is None:
        return leaf_hash(node.label)
    return node_hash.__wrapped__(_eager_hash(node.zero), _eager_hash(node.one))


trie_steps = st.lists(st.tuples(
    st.sampled_from(["insert", "insert", "root", "node", "children", "invariants"]),
    st.text(alphabet="01", min_size=8, max_size=8),
    st.integers(min_value=0, max_value=10 ** 6)), max_size=60)

#: Keys no 8-bit trie accepts: another length, or 8 characters not all bits,
#: among them forms ``int(key, 2)`` would parse (a sign, spaces, ``_``, a
#: non-ASCII digit one).
malformed_keys = st.one_of(
    st.text(alphabet="01", max_size=12).filter(lambda key: len(key) != 8),
    st.sampled_from(["+0110011", " 0110011", "0110011 ", "0110_011", "0110011\u0661"]),
    st.text(alphabet="01x2 _+", min_size=8, max_size=8).filter(lambda key: key.strip("01")))


@given(trie_steps, st.booleans(), st.lists(malformed_keys, max_size=3))
@example([("insert", "01100110", 0)], False, ["+0110011", "0110_011", "0110011\u0661", "0110011"])
def test_patricia_lazy_hashes_equal_eager_hashes(steps, check_every_step, malformed):
    """Hashes are computed when read: under any interleaving of inserts and
    reads, every hash read is the one an eager trie would hold, and a cached
    hash is never stale.  Digests are memoized across tries: tries filled in
    other orders hold the same root digest *object*, and every digest equals
    its uncached recomputation.  A malformed key raises at every insert, in
    every trie, and leaves each trie as it was."""
    trie = PatriciaTrie(key_bits=8)
    shared = {}  # key -> the one hand-built record every trie below stores
    for op, key, pick in steps:
        nodes = sorted(trie_nodes(trie), key=lambda n: n.label)
        node = nodes[pick % len(nodes)] if nodes else None
        if op == "insert":
            trie.insert(shared.setdefault(key, Publication(1, key.encode(), key=key)))
        elif op == "invariants":
            check_trie_invariants(trie)
        elif node is None:
            assert trie.root_summary() is None
        elif op == "root":
            assert trie.root_summary() == (trie.root.label, _eager_hash(trie.root))
        elif op == "node":
            assert trie.search_node(node.label).hash == _eager_hash(node)
        elif node.zero is not None:
            assert node.child_summaries() == [
                (child.label, _eager_hash(child)) for child in (node.zero, node.one)]
        if check_every_step:  # reads every hash, so also leaves no cache empty
            check_trie_invariants(trie)
        for n in trie_nodes(trie):
            assert n._hash is None or n._hash == _eager_hash(n), "stale cached hash"
    check_trie_invariants(trie)
    # A leaf's hash lives on the Publication: tries sharing the instances, filled
    # in other orders and read before, between and after, all hold eager hashes.
    backwards, sorted_order = PatriciaTrie(key_bits=8), PatriciaTrie(key_bits=8)
    for publication in reversed(shared.values()):
        backwards.insert(publication)
        assert backwards.root.hash == _eager_hash(backwards.root)
    for key in sorted(shared):
        sorted_order.insert(shared[key])
    for other in (backwards, sorted_order):
        assert other.root_summary() == trie.root_summary()
        assert other.root is None or other.root.hash is trie.root.hash
        assert all(n.hash == _eager_hash(n) for n in trie_nodes(other))
        assert all(other.get(key) is shared[key] for key in shared)
    for key in malformed:
        publication = Publication(1, key.encode(), key=key)
        for other in (trie, backwards, sorted_order):
            before = (other.keys(), other.root_summary())
            for _ in range(2):  # a failed check is not remembered
                with pytest.raises(ValueError):
                    other.insert(publication)
            assert (other.keys(), other.root_summary()) == before
            check_trie_invariants(other)


@given(st.lists(st.text(alphabet="01", min_size=6, max_size=6),
                min_size=2, max_size=16, unique=True))
def test_patricia_xor_split_is_the_common_prefix(keys):
    """``insert`` finds the split point with one XOR against the node the
    descent stopped at — a leaf (equal lengths) or an inner node (a shorter
    label), below an empty root label too.  Reference: ``os.path.commonprefix``."""
    for key, other in zip(keys, keys[1:]):
        for width in range(1, len(other) + 1):  # every label a node could carry
            label = other[:width]
            assert (width - (int(key[:width], 2) ^ int(label, 2)).bit_length()
                    == len(commonprefix((key, label))))
    trie = PatriciaTrie(key_bits=6)
    for count, key in enumerate(keys, start=1):
        assert trie.insert(Publication(1, b"", key=key))
        for node in trie_nodes(trie):
            below = [k for k in keys[:count] if k.startswith(node.label)]
            assert node.label == commonprefix(below)
            assert node.is_leaf == (len(below) == 1)


# ------------------------------------------------------------ anti-entropy
@SLOW
@given(keys_strategy, keys_strategy)
def test_antientropy_repeated_exchanges_reach_the_union(keys_a, keys_b):
    """Theorem 17's pairwise engine: repeated CheckTrie exchanges initiated
    alternately from both sides converge to the union of the two publication
    sets, and no exchange ever loses a publication (monotonicity)."""
    trie_a, trie_b = PatriciaTrie(key_bits=8), PatriciaTrie(key_bits=8)
    for key in keys_a:
        trie_a.insert(Publication(1, key.encode(), key))
    for key in keys_b:
        trie_b.insert(Publication(2, key.encode(), key))
    union = keys_a | keys_b
    for round_index in range(64):
        if set(trie_a.keys()) == union and set(trie_b.keys()) == union:
            break
        before = set(trie_a.keys()) | set(trie_b.keys())
        source, target = (trie_a, trie_b) if round_index % 2 == 0 else (trie_b, trie_a)
        reconcile_once(source, target)
        assert before <= set(trie_a.keys()) | set(trie_b.keys())
    assert set(trie_a.keys()) == union
    assert set(trie_b.keys()) == union


# ------------------------------------------------------- supervisor repair
entries_strategy = st.dictionaries(
    keys=st.text(alphabet="01", min_size=1, max_size=6),
    values=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
    max_size=12,
)


@given(entries_strategy)
def test_database_repair_always_restores_invariants(entries):
    db = TopicDatabase(entries=dict(entries))
    db.repair_labels()
    assert not database_corrupted(db)
    # repair never invents subscribers
    survivors = set(db.members())
    original = {v for v in entries.values() if v is not None}
    assert survivors <= original


@given(entries_strategy)
def test_database_repair_is_idempotent(entries):
    db = TopicDatabase(entries=dict(entries))
    db.repair_labels()
    once = dict(db.entries)
    db.repair_labels()
    assert db.entries == once


# Canonical labels, a non-canonical one ('0100' is l(2) = '01' with zeros) and
# invalid ones; references include ``None`` (corruption (i)) and repeats (ii).
_db_label = st.sampled_from(["0", "1", "01", "11", "001", "011", "101", "0100", "10", "", "2x"])
_db_steps = st.lists(st.one_of(
    st.tuples(st.just("put"), _db_label, st.one_of(st.none(), st.integers(1, 6))),
    st.tuples(st.just("remove"), st.integers(0, 20), st.none()),
    st.tuples(st.just("repair"), st.none(), st.one_of(st.none(), st.integers(1, 6))),
    st.tuples(st.just("clear"), st.none(), st.none()),
), max_size=40)


@given(_db_steps)
def test_memoized_hole_scan_equals_a_fresh_scan_after_every_write(steps):
    """``missing_labels`` is remembered until the next ``put``/``remove``/
    ``clear``; after every step it and ``database_corrupted`` equal a scan of a
    database rebuilt from the same entries."""
    db = TopicDatabase()
    for op, label, ref in steps:
        if op == "put":
            db.put(label, ref)
        elif op == "remove" and db.n:
            db.remove(list(db.entries)[label % db.n])
        elif op == "repair":
            db.repair_labels(crashed=None if ref is None else [ref])
        elif op == "clear":
            db.clear()
        fresh = TopicDatabase(entries=dict(db.entries))
        assert db.missing_labels() == fresh.missing_labels() == [
            label_of(i) for i in range(db.n) if label_of(i) not in db.entries]
        assert database_corrupted(db) == database_corrupted(fresh)


# ------------------------------------------------ the oracle vs SR(n) per check
def _reference_ring_legitimate(supervisor, subscribers, members, topic):
    """The oracle as it was before its per-n table: ``SkipRingTopology(n)``
    and ``expected_subscriber_state`` rebuilt on every check, each condition
    one explicit comparison, emitting the oracle's records in its order."""
    report = LegitimacyReport(topic=topic, n=len(members))
    db = supervisor.databases.get(topic)
    entries = dict(db.entries) if db is not None else {}
    first_label, ghosts = {}, []
    for lbl, ref in entries.items():
        if ref is None or ref not in members or ref in first_label:
            ghosts.append(Finding(ref, "database-ghost", None, lbl))
        else:
            first_label[ref] = lbl
    report.findings += [Finding(ref, "database-missing", None, None)
                        for ref in members if ref not in entries.values()]
    report.findings += ghosts
    report.findings += [Finding(None, "database-label", label_of(i), None)
                        for i in range(len(entries)) if label_of(i) not in entries]
    if report.findings:
        return report
    ref_of = {index_of(lbl): ref for lbl, ref in entries.items()}
    topo = SkipRingTopology(len(members))
    for index in range(len(members)):
        ref, spec = ref_of[index], topo.expected_subscriber_state(index)
        subscriber = subscribers.get(ref)
        view = None if subscriber is None or subscriber.crashed else subscriber.view(
            topic, create=False)
        checks = [("label", spec["label"], getattr(view, "label", None))]
        for condition, key in (("ring-left", "left"), ("ring-right", "right"),
                               ("ring-wrap", "ring")):
            held = getattr(view, key, None)
            checks.append((condition, None if spec[key] is None else ref_of[spec[key]],
                           None if held is None else held.ref))
        report.findings += [Finding(ref, condition, want, got)
                            for condition, want, got in checks if want != got]
        expected = {lbl: ref_of[idx] for lbl, idx in spec["shortcuts"].items()}
        actual = dict(view.shortcuts) if view is not None else {}
        for lbl in [*expected, *(lbl for lbl in actual if lbl not in expected)]:
            if (lbl in expected, expected.get(lbl)) != (lbl in actual, actual.get(lbl)):
                report.findings.append(
                    Finding(ref, f"shortcut@{lbl}", expected.get(lbl), actual.get(lbl)))
    return report


_perturbations = st.lists(st.tuples(
    st.sampled_from(["label", "left", "right", "ring", "shortcut", "drop_shortcut",
                     "extra_shortcut", "crash", "database", "scramble"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)), max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 40), _perturbations)
@example(40, [("scramble", 0, 0)])  # 113 findings: the report renders the first 50
def test_table_driven_oracle_equals_rebuilding_sr_n_per_check(n, perturbations):
    system, peers = build_stable(SystemSpec(seed=n), n)
    members, topic = system.members(), system.params.default_topic
    supervisor = system.supervisor_of(topic)
    for kind, pick, other_pick in perturbations:
        view, other = peers[pick % n].view(), peers[other_pick % n]
        wrong = Neighbor(other.view().label, other.node_id)
        if kind == "label":
            view.label = _LABELS[pick % len(_LABELS)] if pick % 3 else None
        elif kind in ("left", "right", "ring"):
            setattr(view, kind, wrong if pick % 4 else None)
        elif kind == "shortcut" and view.shortcuts:
            view.shortcuts[sorted(view.shortcuts)[other_pick % len(view.shortcuts)]] = \
                other.node_id
        elif kind == "drop_shortcut" and view.shortcuts:
            del view.shortcuts[sorted(view.shortcuts)[other_pick % len(view.shortcuts)]]
        elif kind == "extra_shortcut":
            view.shortcuts[wrong.label] = other.node_id
        elif kind == "crash":
            peers[pick % n].crash()
        elif kind == "database":
            supervisor.database(topic).put("0100", other.node_id)
        elif kind == "scramble":
            for peer in peers:
                peer.view().left, peer.view().shortcuts = None, {}
    actual = ring_legitimate(supervisor, system.subscribers, members, topic)
    expected = _reference_ring_legitimate(supervisor, system.subscribers, members, topic)
    assert (actual.findings, actual.legitimate) == (expected.findings, expected.legitimate)
    assert actual.legitimate or perturbations
    assert [problem.split(" expected ")[0] for problem in actual.problems] == [
        f"{finding.node}: {finding.condition}" for finding in actual.findings[:50]]
    if perturbations == [("scramble", 0, 0)] and n == 40:
        # every left but the minimum's, and all 74 shortcuts: counted, not capped
        assert len(actual.findings) == 113 and len(actual.problems) == 50
        assert actual.failed() == {"ring-left", "shortcut"}


def test_a_null_shortcut_the_table_lacks_is_a_finding():
    """A corrupted start can store a shortcut whose ref is ``None``; its label
    is present, so it fails although ``None`` also reads as absent."""
    system, peers = build_stable(SystemSpec(seed=3), 8)
    peers[2].view().shortcuts["1111111"] = None
    report = system.legitimacy_report()
    assert report.findings == [(peers[2].node_id, "shortcut@1111111", None, None)]
    assert not report.legitimate


# ------------------------------------------- the Timeout plan vs no plan at all
# ``core/subscriber.py`` caches what a Timeout derives from (label, left,
# right, ring) and re-sends cached params dicts, a flood reads its targets
# from a memo, and three handlers return early on what a cache vouches for:
# ``Introduce`` on the plan, ``CheckTrie`` on the trie root's cached digest,
# ``PublishNew``/``Publish`` on the stored copy the wire's key finds.  Two
# identical systems take the same steps; in one, every cache is thrown away
# before every step (and right before each ``CheckTrie``), and every copy of
# a publication reaches it without its key, so it runs the uncached protocol
# and no such early return fires.  Sends, state and RNG state must never
# differ — also in the states built to make an early return *not* fire: a
# stale plan, a CYC flag, a ``believed`` that is not the label, a root that
# differs, summaries in a tuple or as 2-lists, a stored key over other content.
_LABELS = ["0", "1", "01", "11", "10", "001", "011", "101", "111", "0001", "1111"]
_REFS = [1, 2, 3, 4, 5, 0, 99]  # the five subscribers, the supervisor, nobody
_PAYLOADS = [b"a", b"b", b"c"]

_label = st.sampled_from(_LABELS)
_any_label = st.one_of(_label, _label, st.sampled_from(FORGED["label"]))
_ref = st.sampled_from(_REFS)
_pair = st.one_of(st.none(), st.tuples(_label, _ref), st.tuples(_label, _ref),
                  st.sampled_from(FORGED["pair"]))
_node_and_label = st.fixed_dictionaries({"node": _ref, "label": _any_label})
_deliveries = st.one_of(
    st.tuples(st.just(msg.INTRODUCE), st.fixed_dictionaries({
        "node": _ref, "label": _any_label, "believed": _any_label,
        "flag": st.one_of(st.sampled_from([msg.FLAG_LIN, msg.FLAG_CYC]),
                          st.sampled_from(FORGED["label"]))})),
    st.tuples(st.just(msg.LINEARIZE), _node_and_label),
    st.tuples(st.just(msg.CORRECT_LABEL), _node_and_label),
    st.tuples(st.just(msg.INTRODUCE_SHORTCUT), _node_and_label),
    st.tuples(st.just(msg.REMOVE_CONNECTIONS), st.fixed_dictionaries({"node": _ref})),
    st.tuples(st.just(msg.SET_DATA), st.fixed_dictionaries({
        "pred": _pair, "label": st.one_of(_label, _label, _any_label, st.none()), "succ": _pair})),
    st.tuples(st.just(msg.PUBLISH_NEW), st.fixed_dictionaries({
        "pub": st.builds(lambda publisher, payload: {"publisher": publisher,
                                                     "payload": payload.hex(), "key_bits": 64},
                         _ref, st.sampled_from(_PAYLOADS)),
        "hops": st.integers(1, 3), "sender": _ref})),
)
_neighbor = st.one_of(st.none(), st.builds(Neighbor, _label, _ref))
_writes = st.one_of(
    st.tuples(st.sampled_from(["left", "right", "ring"]), _neighbor),
    st.tuples(st.just("label"), st.one_of(st.none(), _label)),
    st.tuples(st.just("shortcut"), st.tuples(_label, st.one_of(st.none(), _ref))),
    st.tuples(st.just("shortcuts"), st.just(None)),
)
# A benign delivery: a stored neighbour (or shortcut) introduces itself again,
# under its stored label or another one, believing our label or another one.
_echoes = st.tuples(
    st.sampled_from(["left", "right", "ring", "shortcuts"]),
    st.sampled_from([msg.INTRODUCE, msg.LINEARIZE, msg.INTRODUCE_SHORTCUT, msg.CORRECT_LABEL]),
    st.one_of(st.none(), _label), st.sampled_from([msg.FLAG_LIN, msg.FLAG_CYC]),
    st.booleans())
# A ``CheckTrie`` carrying the root summary of one of the five subscribers
# (ours, an equal one or one that differs) or a forged digest, in the shape
# a Timeout sends, in a tuple, as a 2-list, or twice.
_checks = st.tuples(st.sampled_from([0, 1, 2, 3, 4, "forged"]),
                    st.sampled_from(["list", "tuple", "2-list", "twice"]), _ref)
# A copy of a publication: as its publisher's instance carries it, as the
# interned instance of its content carries it (the same dict, while ``create``
# interns), as an equal dict, or naming the key of one the receiver stores
# (its first, if any) over its own content.
_copies = st.tuples(st.sampled_from([msg.PUBLISH_NEW, msg.PUBLISH]),
                    st.sampled_from(["publisher", "interned", "dict", "stored key"]),
                    _ref, st.sampled_from(_PAYLOADS), st.integers(1, 3), _ref)
# Two of the five subscribers take the steps and two of the nine step kinds
# are a Timeout, so "write one field, then time out" is a common subsequence.
_steps = st.lists(st.tuples(st.integers(0, 1), st.one_of(
    st.tuples(st.just("deliver"), _deliveries),
    st.tuples(st.just("copy"), _copies),
    st.tuples(st.just("echo"), _echoes),
    st.tuples(st.just("check"), _checks),
    st.tuples(st.just("write"), _writes),
    st.tuples(st.just("timeout"), st.none()),
    st.tuples(st.just("timeout"), st.none()),
    st.tuples(st.just("publish"), st.sampled_from(_PAYLOADS)),
    st.tuples(st.just("run"), st.sampled_from([0.3, 1.1])),
)), min_size=12, max_size=30)


class _World:
    """A stable five-subscriber system — or E4's corrupted eight-subscriber
    start, two components and a corrupted database, or an empty system five
    subscribers are joining — whose every send is logged."""

    def __init__(self, seed: int, caching: bool, start: str = "stable") -> None:
        if start == "corrupted":
            self.system, self.subscribers = build_adversarial_system(AdversarialConfig(
                8, seed, database_mode="corrupted", components=2))
        elif start == "empty":
            self.system, self.subscribers = build_system(SystemSpec(seed=seed)), []
        else:
            self.system, self.subscribers = build_stable(SystemSpec(seed=seed), 5)
        self.caching = caching
        self.sends = []
        sim = self.system.sim
        send_fast = sim._send_fast

        def logged(sender, topic, sends):
            self.sends.extend((sender, dest, action, topic,
                               {k: v for k, v in params.items() if k != "topic"})
                              for dest, action, params in sends)
            send_fast(sender, topic, sends)

        sim._send_fast = logged
        if start == "empty":  # the joins' Subscribe requests are logged too
            self.subscribers = [self.system.add_subscriber() for _ in range(5)]

    def views(self):
        return [view for sub in self.subscribers for view in sub.views.values()]

    def forget(self) -> None:
        if self.caching:
            return
        for view in self.views():
            view._plan = view._pair_memo = view._check_memo = view._flood_memo = None
            for node in trie_nodes(view.trie):
                node._hash = None  # the Merkle cache: recomputed on the next read

    def take(self, who: int, kind: str, arg) -> None:
        sub = self.subscribers[who]
        view = sub.view()
        if kind == "deliver":
            action, params = arg
            Subscriber._action_handlers[action](sub, topic=view.topic, **params)
        elif kind == "copy":
            action, source, publisher, payload, hops, sender = arg
            genuine = Publication.create(publisher, payload, key_bits=64)
            wire = {"publisher": genuine.wire,
                    "interned": Publication.from_wire(dict(genuine.wire)).wire,
                    "dict": dict(genuine.wire),
                    "stored key": dict(genuine.wire,
                                       key=min(view.trie.key_set(), default=genuine.key)),
                    }[source]
            if not self.caching:
                wire = {k: v for k, v in wire.items() if k != "key"}
            if action == msg.PUBLISH_NEW:
                sub.on_PublishNew(pub=wire, hops=hops, sender=sender, topic=view.topic)
            else:
                sub.on_Publish(pubs=[wire], topic=view.topic)
        elif kind == "echo":
            field, action, relabel, flag, honest = arg
            stored = getattr(view, field)
            if field == "shortcuts":
                stored = next(((lbl, ref) for lbl, ref in stored.items() if ref is not None), None)
            if stored is not None:
                params = {"node": stored[1], "label": relabel or stored[0]}
                if action == msg.INTRODUCE:
                    believed = view.label if honest else (view.label or "") + "1"
                    params.update(believed=believed, flag=flag)
                Subscriber._action_handlers[action](sub, topic=view.topic, **params)
        elif kind == "check":
            source, shape, sender = arg
            if source == "forged":
                summary = (view.trie.root.label if view.trie.root else "", "0" * 64)
            else:
                summary = self.subscribers[source].view().trie.root_summary()
            if summary is not None:
                tuples = {"list": [summary], "tuple": (summary,), "2-list": [list(summary)],
                          "twice": [summary, summary]}[shape]
                self.forget()  # reading the summary filled the Merkle cache
                sub.on_CheckTrie(sender=sender, tuples=tuples, topic=view.topic)
        elif kind == "write":
            field, value = arg
            if field == "shortcut":
                view.shortcuts[value[0]] = value[1]
            elif field == "shortcuts":
                view.shortcuts = {}
            else:
                setattr(view, field, value)
        elif kind == "timeout":
            sub.on_timeout()
        elif kind == "publish":
            sub.publish(arg)
        else:
            self.system.sim.run_for(arg)

    def state(self):
        sim = self.system.sim
        return (sim.now, sim.steps_executed, [
            (sub.node_id, sub.configuration_requests, sub.rng.getstate(), [
                (view.topic, view.subscribed, view.pending_unsubscribe, view.label,
                 view.left, view.right, view.ring, list(view.shortcuts.items()),
                 view.config_change_count, view._last_config_state,
                 view.trie.root_summary())
                for view in sub.views.values()])
            for sub in self.subscribers])


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 3), _steps)
def test_timeout_plan_and_memos_are_indistinguishable_from_no_cache(seed, steps):
    cached, uncached = _World(seed, caching=True), _World(seed, caching=False)
    assert all(view._plan is not None for view in cached.views())
    _assert_indistinguishable(cached, uncached, steps)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 3), _steps)
def test_timeout_plan_and_memos_are_indistinguishable_from_a_corrupted_start(seed, steps):
    """From E4's corrupted configuration the first Timeouts sanitize sides and
    prune shortcuts — the paths a steady ring never takes."""
    cached = _World(seed, caching=True, start="corrupted")
    uncached = _World(seed, caching=False, start="corrupted")
    _assert_indistinguishable(cached, uncached, steps)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 3), _steps)
def test_timeout_plan_and_memos_are_indistinguishable_while_subscribers_join(seed, steps):
    """From an empty system five subscribers join: the runs carry the
    ``SetData`` and ``Linearize`` traffic of a converging ring, the path
    ``_integrate`` takes most, with plans rebuilt as neighbours arrive."""
    cached = _World(seed, caching=True, start="empty")
    uncached = _World(seed, caching=False, start="empty")
    _assert_indistinguishable(cached, uncached, steps)


def _assert_indistinguishable(cached, uncached, steps):
    for who, (kind, arg) in steps:
        uncached.forget()
        cached.take(who, kind, arg)
        uncached.take(who, kind, arg)
        assert cached.sends == uncached.sends
        assert cached.state() == uncached.state()
