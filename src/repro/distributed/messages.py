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
Fig. 3).  A delivered message is a call to its receiver's handler with
the message's fields (see :class:`~repro.distributed.node.ProtocolNode`),
so this module only names the types.  :class:`MessageStats` tallies both logical messages and
hop-weighted transmissions, which the Table II complexity check
(``O(QN + N²)``) is run against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

NPI = "NPI"
CC = "CC"
TIGHT = "TIGHT"
SPAN = "SPAN"
FREEZE = "FREEZE"
NADMIN = "NADMIN"
BADMIN = "BADMIN"

ALL_TYPES = (NPI, CC, TIGHT, SPAN, FREEZE, NADMIN, BADMIN)


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
