"""DAG-Rider baseline ([8], Keidar et al., PODC 2021).

Wave = **four RBC rounds**.  The wave's leader block (round ⟨w,1⟩, named by
the GPC revealed from shares riding in round-⟨w,4⟩ blocks) commits
directly when ``2f + 1`` round-⟨w,4⟩ blocks reference it (three parent
hops — the "strong path" condition).  Missed leaders commit through the
same Algorithm-1-style cascade as LightDAG.

Latency accounting (Table I): 4 RBC rounds × 3 steps = 12 steps best case
(10 when the coin reveal is counted at the first step of the fourth RBC).
"""

from __future__ import annotations

from ..core.base import BaseDagNode


class DagRiderNode(BaseDagNode):
    """One DAG-Rider replica."""

    WAVE_LENGTH = 4
    WAVE_OVERLAP = False
    BROADCAST = ("rbc",) * 4
    SUPPORT_DEPTH = 3
    SUPPORT_THRESHOLD = "2f+1"
    STRICT_STORE = True
