"""``ShardedPubSub``: another name for :class:`repro.core.facade.SupervisedPubSub`."""

from repro.core.facade import SupervisedPubSub

# Read only by bench/trace.py, which patches the facade under this name.
ShardedPubSub = SupervisedPubSub
