"""Protocol parameters for the BuildSR / publish-subscribe protocols.

The paper fixes most behaviour but leaves a few knobs implicit (how an
unknown requester is integrated, whether flooding is enabled on top of
anti-entropy).  :class:`ProtocolParams` gathers them so experiments and
ablations can vary one dimension at a time; the values the paper fixes are
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default budget (in timeout periods) for "run until legitimate/converged"
#: drivers.  Shared by :class:`~repro.api.spec.SystemSpec`, the facade
#: drivers and the scenario/experiment layers so the magic number is stated
#: exactly once.
DEFAULT_MAX_ROUNDS = 2_000

#: Default predicate-evaluation cadence (in timeout periods) of the same
#: drivers.
DEFAULT_CHECK_EVERY_ROUNDS = 5


def require_int_fields(spec: object, *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``spec``'s count fields that
    is not an ``int`` (a ``bool`` is not a count).  JSON specs may carry
    ``2.0``, which the runners would only reject mid-run."""
    for name in names:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{type(spec).__name__}.{name} must be an int, "
                             f"got {value!r}")


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable parameters of the subscriber/supervisor protocols.

    The paper fixes the request probabilities, so they are not fields:
    action (ii)'s ``1 / (2^k · k²)`` is :meth:`request_probability`, action
    (iv)'s 1/2 is :data:`repro.core.subscriber.MINIMAL_REQUEST_PROBABILITY`.

    Attributes
    ----------
    integrate_unknown_requesters:
        Section 3.2.1's prose says the supervisor *integrates* an unknown
        subscriber that asks for its configuration; Algorithm 3 instead
        replies ``SetData(⊥,⊥,⊥)`` which makes the subscriber re-subscribe.
        ``True`` follows the prose, ``False`` the pseudocode (ablation A1).
    enable_minimal_request:
        Toggle for action (iv) (ablation A2).
    enable_flooding:
        Whether new publications are additionally flooded over ring and
        shortcut edges (Section 4.3; ablation A3).
    enable_anti_entropy:
        Whether the periodic CheckTrie reconciliation runs (Section 4.2).
    anti_entropy_probability:
        Probability per Timeout that a subscriber initiates a CheckTrie
        exchange with a random ring neighbour (1.0 = every Timeout, as in
        Algorithm 5).
    publication_key_bits:
        Length ``m`` of publication keys produced by the hash ``h̄_m``.
    shortcut_maintenance:
        Whether the shortcut sub-protocol runs at all (useful for isolating
        ring convergence in tests).
    default_topic:
        Topic name used when the caller does not specify one.
    """

    integrate_unknown_requesters: bool = True
    enable_minimal_request: bool = True
    enable_flooding: bool = True
    enable_anti_entropy: bool = True
    anti_entropy_probability: float = 1.0
    publication_key_bits: int = 64
    shortcut_maintenance: bool = True
    default_topic: str = "default"

    def __post_init__(self) -> None:
        if not 0 <= self.anti_entropy_probability <= 1:
            raise ValueError("anti_entropy_probability must be in [0, 1]")
        if self.publication_key_bits < 4:
            raise ValueError("publication_key_bits must be at least 4")

    def request_probability(self, label_length: int) -> float:
        """Probability of action (ii): ``1 / (2^k · k²)`` for ``k = |label|``.
        The exponent is capped at 30: a corrupted, absurdly long label would
        overflow the division, and the analysis only needs the probability
        to be positive."""
        k = max(1, label_length)
        return 1.0 / (2 ** min(k, 30) * k * k)
