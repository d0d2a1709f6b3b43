"""Control messages of the distributed algorithm (Table II).

| Packet  | Content                                               | Range     |
|---------|-------------------------------------------------------|-----------|
| NPI     | a new data chunk waits to be cached                   | broadcast |
| CC      | contention collection request                         | local     |
| TIGHT   | bid covered the contention cost ("can I get data?")   | local     |
| SPAN    | relay bid covered the cost ("can you fetch for me?")  | local     |
| FREEZE  | response freezing a node onto a server                | local     |
| NADMIN  | new admin informs the nodes tight with it             | local     |
| BADMIN  | new admin announces itself network-wide               | broadcast |

"Local" messages are scoped to ``k`` hops (k = 2 in the evaluation,
Fig. 3).  :class:`MessageStats` tallies both logical messages and
hop-weighted transmissions, which the Table II complexity check
(``O(QN + N²)``) is run against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable

Node = Hashable

NPI = "NPI"
CC = "CC"
TIGHT = "TIGHT"
SPAN = "SPAN"
FREEZE = "FREEZE"
NADMIN = "NADMIN"
BADMIN = "BADMIN"

ALL_TYPES = (NPI, CC, TIGHT, SPAN, FREEZE, NADMIN, BADMIN)


@dataclass(frozen=True)
class Message:
    """Base class: every message names its type, sender and chunk.

    ``seq`` is the session-unique sequence number stamped by the
    :class:`~repro.distributed.faults.FaultPlane`.  Retransmissions of a
    message reuse its original ``seq``, which is what lets receivers
    suppress duplicate deliveries; ``-1`` marks a message that never
    crossed the fault plane (unit-test construction).
    """

    sender: Node
    chunk: int
    seq: int = -1


@dataclass(frozen=True)
class NpiMessage(Message):
    """New Packet Info — flooded from the producer; accumulates the path
    contention cost so every node learns its cost to reach the producer."""

    cost_from_producer: float = 0.0
    hops: int = 0

    type: str = NPI


@dataclass(frozen=True)
class CcMessage(Message):
    """Contention Collection — flooded ``k`` hops from a candidate;
    accumulates node contention costs so receivers learn ``Con_ij``."""

    origin: Node = None
    accumulated_cost: float = 0.0
    hops: int = 0

    type: str = CC


@dataclass(frozen=True)
class TightMessage(Message):
    """Client's bid ``α_j`` covered ``Con_ij``: "Can I get data from you?"

    Carries the contention cost the client measured so the candidate can
    track the client's payment ``β`` without further traffic."""

    target: Node = None
    contention: float = 0.0
    bid: float = 0.0

    type: str = TIGHT


@dataclass(frozen=True)
class SpanMessage(Message):
    """Client's relay bid ``γ_j`` covered ``Con_ij``: "Can you fetch data
    for me from other nodes?"  Carries the current resource bid ``β_j``."""

    target: Node = None
    contention: float = 0.0
    resource_bid: float = 0.0

    type: str = SPAN


@dataclass(frozen=True)
class FreezeMessage(Message):
    """Freeze the receiver onto server ``server`` (stop bidding)."""

    server: Node = None

    type: str = FREEZE


@dataclass(frozen=True)
class NAdminMessage(Message):
    """A node became ADMIN; sent to the nodes tight with it."""

    type: str = NADMIN


@dataclass(frozen=True)
class BAdminMessage(Message):
    """Network-wide admin announcement; accumulates path cost like NPI so
    distant actives can estimate their contention to the new admin."""

    cost_from_admin: float = 0.0
    hops: int = 0

    type: str = BADMIN


@dataclass
class MessageStats:
    """Counters for delivered messages, by type.

    ``messages`` counts logical deliveries (one per receiving node);
    ``transmissions`` weights each delivery by the hop distance it
    travelled — the radio-level cost.
    """

    messages: Dict[str, int] = field(
        default_factory=lambda: {t: 0 for t in ALL_TYPES}
    )
    transmissions: Dict[str, int] = field(
        default_factory=lambda: {t: 0 for t in ALL_TYPES}
    )

    def record(self, msg_type: str, hops: int) -> None:
        """Record one delivery of ``msg_type`` over ``hops`` hops."""
        self.messages[msg_type] += 1
        self.transmissions[msg_type] += max(1, hops)

    def record_many(self, msg_type: str, count: int, transmissions: int) -> None:
        """Record ``count`` deliveries of ``msg_type`` at once, together
        worth ``transmissions`` (each leg's ``max(1, hops)``, summed)."""
        self.messages[msg_type] += count
        self.transmissions[msg_type] += transmissions

    def total_messages(self) -> int:
        return sum(self.messages.values())

    def total_transmissions(self) -> int:
        return sum(self.transmissions.values())

    def merge(self, other: "MessageStats") -> None:
        """Accumulate another stats object into this one."""
        for t in ALL_TYPES:
            self.messages[t] += other.messages[t]
            self.transmissions[t] += other.transmissions[t]
