"""Tests for adversarial initial states and publication workloads."""

import pytest

from repro.api import SystemSpec, build_stable
from repro.core.config import ProtocolParams
from repro.workloads.initial_states import (
    AdversarialConfig,
    build_adversarial_system,
)
from repro.workloads.publications import generate_payloads, scatter_publications


class TestAdversarialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdversarialConfig(n=0)
        with pytest.raises(ValueError):
            AdversarialConfig(n=4, components=5)
        with pytest.raises(ValueError):
            AdversarialConfig(database_mode="weird")

    @pytest.mark.parametrize("field, value", [
        ("fraction_unlabeled", 1.5), ("fraction_unlabeled", -0.1), ("fraction_unlabeled", "0.5"),
        ("fraction_random_labels", -0.2), ("fraction_random_labels", float("nan")),
        ("corrupted_messages", -3), ("corrupted_messages", 2.0), ("n", 4.0), ("seed", True),
        ("components", "2")])
    def test_a_bad_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"AdversarialConfig.{field}"):
            AdversarialConfig(**{field: value})

    def test_the_fractions_sum_to_at_most_one(self):
        AdversarialConfig(fraction_unlabeled=0.0, fraction_random_labels=1.0)  # A2's start
        with pytest.raises(ValueError, match="fraction_unlabeled \\+ fraction_random_labels"):
            AdversarialConfig(fraction_unlabeled=0.5, fraction_random_labels=0.75)

    def test_generator_is_deterministic(self):
        config = AdversarialConfig(n=8, seed=3, database_mode="corrupted")
        sys_a, subs_a = build_adversarial_system(config)
        sys_b, subs_b = build_adversarial_system(config)
        labels_a = [s.label() for s in subs_a]
        labels_b = [s.label() for s in subs_b]
        assert labels_a == labels_b
        assert dict(sys_a.supervisor.database().entries) == \
            dict(sys_b.supervisor.database().entries)

    def test_initial_state_is_not_legitimate(self):
        config = AdversarialConfig(n=10, seed=1, database_mode="corrupted")
        system, _ = build_adversarial_system(config)
        assert not system.is_legitimate()
        # A None ref and a duplicate subscriber are ghosts; the node conditions
        # wait for a database that names SR(n)'s labels.
        assert "database-ghost" in system.legitimacy_report().failed()
        assert system.legitimacy_report().failed() <= {
            "database-missing", "database-ghost", "database-label"}


class TestTheorem8Convergence:
    @pytest.mark.parametrize("mode", ["empty", "partial", "corrupted", "correct"])
    def test_convergence_from_every_database_mode(self, mode):
        config = AdversarialConfig(n=10, seed=4, database_mode=mode)
        system, _ = build_adversarial_system(config)
        assert system.run_until_legitimate(max_rounds=1500), mode

    @pytest.mark.parametrize("components", [1, 2, 3])
    def test_convergence_from_partitioned_states(self, components):
        config = AdversarialConfig(n=9, seed=6, components=components,
                                   database_mode="empty")
        system, _ = build_adversarial_system(config)
        assert system.run_until_legitimate(max_rounds=1500)

    def test_convergence_with_corrupted_messages(self):
        config = AdversarialConfig(n=8, seed=8, corrupted_messages=40,
                                   database_mode="corrupted")
        system, _ = build_adversarial_system(config)
        assert system.run_until_legitimate(max_rounds=1500)

    def test_a_first_hit_at_n_32_holds_for_80_checks(self):
        """From a corrupted start, legitimacy is a first-hitting time.  With
        delegations routed over the shortcuts, the probe that once found two
        wrong level-0 shortcuts ten rounds after the first hit finds every one
        of 80 checks, ten rounds apart, legitimate."""
        config = AdversarialConfig(32, 7, database_mode="corrupted", components=2)
        system = build_adversarial_system(config)[0]
        assert system.run_until_legitimate(max_rounds=3000)
        assert system.sim.now == 65 * system.sim.config.timeout_period
        for check in range(80):
            system.run_rounds(10)
            report = system.legitimacy_report()
            assert report.legitimate, (check, report.findings)

    def test_convergence_with_pseudocode_getconfiguration_variant(self):
        config = AdversarialConfig(n=8, seed=9, database_mode="empty")
        params = ProtocolParams(integrate_unknown_requesters=False)
        system, _ = build_adversarial_system(config, params=params)
        assert system.run_until_legitimate(max_rounds=1500)

    def test_publications_survive_adversarial_stabilization(self):
        config = AdversarialConfig(n=8, seed=10, database_mode="empty")
        system, subscribers = build_adversarial_system(config)
        keys = scatter_publications(system, subscribers, count=5, seed=2)
        assert system.run_until_legitimate(max_rounds=1500)
        assert system.run_until_publications_converged(expected_keys=keys,
                                                       max_rounds=800)


class TestPublicationWorkloads:
    def test_generate_payloads_distinct_and_deterministic(self):
        a = generate_payloads(10, seed=5)
        b = generate_payloads(10, seed=5)
        assert a == b
        assert len(set(a)) == 10

    def test_scatter_publications_places_content(self):
        system, subscribers = build_stable(SystemSpec(seed=72), 6)
        keys = scatter_publications(system, subscribers, count=8, seed=1)
        assert len(keys) == 8
        total = sum(len(s.publications()) for s in subscribers)
        assert total == 8  # each publication starts at exactly one subscriber
