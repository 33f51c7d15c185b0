"""LightDAG1 (§IV): DAG consensus over Consistent Broadcast.

LightDAG1 is the paper's "simple modification to existing DAG-based
protocols that replaces RBC with CBC" (§III-C):

* a wave is **three CBC rounds**, with the third round shared with the
  next wave (⟨w,3⟩ = ⟨w+1,1⟩ — the :attr:`WAVE_OVERLAP` flag);
* the wave's leader block (round ⟨w,1⟩, slot named by the GPC whose shares
  ride in round-⟨w,3⟩ blocks) commits **directly** when ``f + 1`` blocks
  of round ⟨w,2⟩ directly reference it;
* missed waves commit **indirectly** through Algorithm 1's cascade;
* CBC's missing totality is patched by the §IV-A retrieval mechanism — a
  replica participates in (echoes) a CBC instance only after delivering
  all the block's ancestors, which the base engine enforces.

Latency: VAL+ECHO per round → rounds 1 and 2 cost 4 steps; the leader is
revealed by the coin shares traveling with round-3 VALs → +1 step; commit
support comes from round-2 deliveries already in hand → best latency 5
steps as in Table I's bracketed figure (6 when the reveal is counted as a
full CBC).
"""

from __future__ import annotations

from .base import BaseDagNode


class LightDag1Node(BaseDagNode):
    """One LightDAG1 replica."""

    WAVE_LENGTH = 3
    WAVE_OVERLAP = True
    BROADCAST = ("cbc", "cbc", "cbc")
    SUPPORT_DEPTH = 1
    #: f+1 in the main text, 2f+1 in Algorithm 1 — the ablation's knob
    SUPPORT_THRESHOLD = "config"
    STRICT_STORE = True


class LightDag1NoMergeNode(LightDag1Node):
    """Ablation variant: waves do *not* share their boundary round.

    Measures what the ⟨w,3⟩ = ⟨w+1,1⟩ merge of §III-C is worth — without
    it every wave pays a full extra CBC round (2 steps) of latency.
    """

    WAVE_OVERLAP = False
