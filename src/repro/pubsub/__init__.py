"""Publication storage and dissemination (paper Section 4).

Every subscriber stores the publications of a topic in a Patricia trie whose
nodes carry Merkle-style hashes (:mod:`repro.pubsub.patricia`).  Two
subscribers reconcile their tries with the CheckTrie / CheckAndPublish /
Publish exchange (:mod:`repro.pubsub.antientropy`), which is self-stabilizing:
eventually every subscriber stores every publication (Theorem 17).  New
publications are additionally flooded over ring and shortcut edges for fast
delivery (:mod:`repro.pubsub.flooding`, Section 4.3).
"""

from repro.pubsub.hashing import publication_key, node_hash, leaf_hash
from repro.pubsub.patricia import PatriciaTrie, TrieNode
from repro.pubsub.publications import Publication
from repro.pubsub.antientropy import handle_check_trie
from repro.pubsub.topics import TopicRegistry

__all__ = [
    "publication_key",
    "node_hash",
    "leaf_hash",
    "PatriciaTrie",
    "TrieNode",
    "Publication",
    "handle_check_trie",
    "TopicRegistry",
]
