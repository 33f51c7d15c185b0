"""Tusk baseline ([10], Danezis et al., EuroSys 2022).

Wave = **three RBC rounds** (Table I).  The wave's leader block (round
⟨w,1⟩, named by the GPC revealed with round-⟨w,3⟩ shares) commits directly
when ``f + 1`` round-⟨w,2⟩ blocks *directly* reference it — Tusk's
"f+1 support stamps" rule.  Cascade as usual.

Latency accounting (Table I): 3 RBC rounds × 3 steps = 9 best case (7 when
the reveal is counted at the first step of the third RBC — our coin shares
travel with the round-3 VALs, so the simulator exhibits the 7-step figure).
"""

from __future__ import annotations

from ..core.base import BaseDagNode


class TuskNode(BaseDagNode):
    """One Tusk replica."""

    WAVE_LENGTH = 3
    WAVE_OVERLAP = False
    BROADCAST = ("rbc",) * 3
    SUPPORT_DEPTH = 1
    SUPPORT_THRESHOLD = "f+1"
    STRICT_STORE = True
