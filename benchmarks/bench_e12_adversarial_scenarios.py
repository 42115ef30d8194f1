"""E12 — adversarial scenarios: loss, partitions, churn storms (beyond the paper).

Runs the scenario engine (:mod:`repro.scenarios`) over the built-in library
plus a dedicated "10 % loss + healed partition" spec, and asserts the
self-stabilization claims under adversity: publications still reach every
surviving subscriber, the overlay re-legitimizes after each disruption, drops
are accounted per reason, and reports are byte-identical per seed with
telemetry on or off.
"""

from repro.experiments.experiments import e12_adversarial_scenarios


def test_e12_adversarial_scenarios(report):
    report(e12_adversarial_scenarios)
