"""Rule registry: importing this package registers every built-in rule.

Rule ids (stable — pragmas refer to them):

* ``hook-signature`` — registered hook callbacks match emitter arity
* ``no-ambient-nondeterminism`` — no wall-clock/uuid/entropy on report paths
* ``no-hotpath-allocation`` — no per-event containers in marked hot loops
* ``no-unsorted-iteration-into-output`` — sorted iteration in serializers
* ``rng-discipline`` — randomness only via seeded streams
* ``slots-complete`` — sim/ classes slotted, no undeclared attribute writes
* ``spec-field-coverage`` — spec fields serialized/validated/reconciled
"""

from repro.check.rules.base import Rule, available_rules, default_rules, register
from repro.check.rules import hook_signature as _hook_signature  # noqa: F401
from repro.check.rules import hotpath as _hotpath  # noqa: F401
from repro.check.rules import nondeterminism as _nondeterminism  # noqa: F401
from repro.check.rules import slots as _slots  # noqa: F401
from repro.check.rules import sorted_output as _sorted_output  # noqa: F401
from repro.check.rules import spec_coverage as _spec_coverage  # noqa: F401

__all__ = ["Rule", "available_rules", "default_rules", "register"]
