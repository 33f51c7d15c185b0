"""Adversary base class (message-schedule control).

The asynchronous model (§III-A) lets the adversary "delay messages by an
arbitrary but finite period".  The simulator consults the adversary on
every non-local send; the verdict is either an extra delay in seconds
(0.0 = deliver normally) or ``None`` = drop.  Dropping an honest-to-honest
message forever exceeds the paper's adversary, who may only delay finitely;
a partition that *heals* is a finite delay plus message loss, which
retransmission-free protocols must survive through §IV-A retrieval — what
the schedule driver's ``partition`` phase exercises.

:class:`Adversary` is the seam the simulator calls.  The one driver in
``src/`` is :class:`repro.adversary.schedule.ScheduleAdversary`; tests
subclass :class:`Adversary` for one-off predicates.
"""

from __future__ import annotations

import random
from typing import Optional

from ..net.interfaces import Message


class Adversary:
    """Base adversary: no interference."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(f"adversary:{seed}")
        self.sim = None

    def attach(self, sim) -> None:
        """Called by the simulator after nodes exist; override to crash
        replicas or inspect the topology."""
        self.sim = sim

    def on_send(self, src: int, dst: int, msg: Message, now: float) -> Optional[float]:
        """Extra delay in seconds for this message, or None to drop it."""
        return 0.0
