"""Bullshark baseline ([9], Spiegelman et al., CCS 2022) — the
partially-synchronous steady-state path.

Bullshark's defining feature is **predefined** leaders: every second RBC
round has a leader slot known in advance (no coin needed on the fast
path), and a leader block commits directly when ``2f + 1`` next-round
blocks reference it — 2 RBC rounds = 6 steps best case (Table I).

Two Bullshark-specific mechanisms matter for the evaluation:

* **Leader wait** — when a replica has an ``n − f`` quorum for the next
  round but the predefined leader's block is still missing, it waits up to
  ``leader_timeout`` before proposing, so that honest proposals reference
  the leader whenever the network cooperates.  This is the optimistic path
  the Fig. 15 adversary attacks: delaying just the leader's block forces
  every replica to burn the timeout *and* still miss the commit, which is
  why the paper finds "BullShark delivers the poorest performance" under
  attack ("the prolonged switch from the optimistic path to the
  pessimistic path").
* **Cascade fallback** — missed leaders commit indirectly through later
  committed leaders (the pessimistic path's effect, which is what bounds
  the damage; Table I's worst-case 30 steps reflects the full fallback
  wave structure we do not replicate step-for-step).

We model a wave as the 2-round leader/vote unit; leaders are derived from
the seeded sequence ``H(seed, wave) mod n`` (fixed before execution —
"predefined" — hence visible to the adversary, unlike a GPC output).
"""

from __future__ import annotations

from typing import Set

from ..crypto.hashing import hash_to_int
from ..core.base import BaseDagNode

#: Timer tag for the optimistic leader wait.
LEADER_WAIT_TAG = "bullshark-leader-wait"


class BullsharkNode(BaseDagNode):
    """One Bullshark replica (steady-state path)."""

    WAVE_LENGTH = 2
    WAVE_OVERLAP = False
    BROADCAST = ("rbc", "rbc")
    SUPPORT_DEPTH = 1
    SUPPORT_THRESHOLD = "2f+1"
    LEADER_SOURCE = "predefined"
    STRICT_STORE = True

    #: Base seconds to wait for the predefined leader before advancing.
    leader_timeout = 0.4

    #: Cap on the adaptive backoff exponent (timeout ≤ base · 2^cap).
    max_backoff_exponent = 6

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._waived_rounds: Set[int] = set()
        self._wait_armed: Set[int] = set()
        # Adaptive timeout (partial synchrony): each wave whose leader
        # missed the window doubles the wait; each leader that made it
        # decays it.  This is what eventually outwaits a fixed-delay
        # leader-delay adversary — the "prolonged switch from the
        # optimistic path to the pessimistic path" costs the doubling
        # ramp, after which commits resume at adversary-delay latency.
        self._timeout_misses = 0

    @property
    def current_leader_timeout(self) -> float:
        exponent = min(self._timeout_misses, self.max_backoff_exponent)
        return self.leader_timeout * (2 ** exponent)

    def predefined_leader(self, wave_num: int) -> int:
        """The leader slot of a wave, fixed before execution."""
        return hash_to_int("bullshark-leader", self.system.seed, wave_num) % self.system.n

    # ------------------------------------------------------- optimistic wait

    def _can_propose_extra(self, round_: int) -> bool:
        """Hold a vote-round proposal until the leader block arrives or the
        optimistic timeout burns off."""
        wave_num = self.wave.wave_of_last_round(round_)
        if wave_num is None:
            return True  # proposing a leader round needs no wait
        leader_round = self.wave.first_round(wave_num)
        leader = self.predefined_leader(wave_num)
        if self.store.block_in_slot(leader_round, leader) is not None:
            if round_ in self._wait_armed and round_ not in self._waived_rounds:
                # Leader made it within the window: decay the backoff.
                self._timeout_misses = max(0, self._timeout_misses - 1)
                self._waived_rounds.add(round_)  # timer already burned
            return True
        if round_ in self._waived_rounds:
            return True
        if round_ not in self._wait_armed:
            self._wait_armed.add(round_)
            self.net.set_timer(self.current_leader_timeout, LEADER_WAIT_TAG, round_)
        return False

    def on_timer(self, tag: str, data=None) -> None:
        if tag == LEADER_WAIT_TAG:
            if data not in self._waived_rounds:
                # The leader missed the window: double the next wait.
                self._waived_rounds.add(data)
                self._timeout_misses += 1
            self._try_advance()
        else:
            super().on_timer(tag, data)
