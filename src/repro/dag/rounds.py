"""Wave / round arithmetic.

Every protocol in the family advances through numbered rounds (1, 2, …)
grouped into waves.  Two structures occur:

* **Non-overlapping** (LightDAG2, DAG-Rider, Tusk, Bullshark): wave ``w``
  of length ``L`` covers rounds ``L(w-1)+1 .. Lw``.
* **Overlapping** (LightDAG1, §III-C): the last round of wave ``w`` *is*
  the first round of wave ``w+1`` (⟨w,3⟩ = ⟨w+1,1⟩), so consecutive waves
  advance by ``L-1`` rounds.  With ``L = 3`` wave ``w`` covers rounds
  ``2w-1, 2w, 2w+1``.

Within a wave, positions ``e`` are 1-based (``1 .. L``); the paper's
LightDAG2 appendix uses 0-based ``⟨w, 0..2⟩`` — we normalize to 1-based
everywhere and note the mapping in the LightDAG2 module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigError


@dataclass(frozen=True)
class WaveStructure:
    """Arithmetic between one-dimensional rounds and ``⟨wave, e⟩`` pairs."""

    length: int
    overlap: bool = False

    def __post_init__(self) -> None:
        if self.length < 2:
            raise ConfigError(f"waves need at least 2 rounds, got {self.length}")
        if self.overlap and self.length < 3:
            raise ConfigError("overlapping waves need length >= 3")

    @property
    def stride(self) -> int:
        """Rounds by which consecutive waves' first rounds differ."""
        return self.length - 1 if self.overlap else self.length

    def round_of(self, wave: int, e: int) -> int:
        """The one-dimensional round number of position ``⟨wave, e⟩``."""
        if wave < 1 or not 1 <= e <= self.length:
            raise ConfigError(f"invalid wave position ⟨{wave},{e}⟩")
        return (wave - 1) * self.stride + e

    def first_round(self, wave: int) -> int:
        return self.round_of(wave, 1)

    def last_round(self, wave: int) -> int:
        return self.round_of(wave, self.length)

    def waves_containing(self, round_: int) -> List[Tuple[int, int]]:
        """All ``(wave, e)`` pairs a round belongs to.

        At most two entries, and two only for shared boundary rounds of an
        overlapping structure.  Rounds before the first wave return empty.
        """
        if round_ < 1:
            return []
        result: List[Tuple[int, int]] = []
        stride = self.stride
        # wave candidates: the round can be at offset 1..length within a wave
        w_high = (round_ - 1) // stride + 1
        for wave in (w_high - 1, w_high):
            if wave < 1:
                continue
            e = round_ - (wave - 1) * stride
            if 1 <= e <= self.length:
                result.append((wave, e))
        return result

    def wave_of_first_round(self, round_: int) -> int | None:
        """The wave whose *first* round is ``round_``, if any."""
        for wave, e in self.waves_containing(round_):
            if e == 1:
                return wave
        return None

    def wave_of_last_round(self, round_: int) -> int | None:
        """The wave whose *last* round is ``round_``, if any (asked of
        every block body received, so computed, not searched)."""
        offset = round_ - self.length  # rounds past wave 1's last
        if offset < 0 or offset % self.stride:
            return None
        return offset // self.stride + 1

    def position_in_wave(self, round_: int, wave: int) -> int:
        """``e`` such that ``round_of(wave, e) == round_`` (raises if none)."""
        e = round_ - (wave - 1) * self.stride
        if not 1 <= e <= self.length:
            raise ConfigError(f"round {round_} not in wave {wave}")
        return e

    def rounds_to_commit(self, commit_e: int) -> int:
        """Number of rounds between a wave's first round and the round whose
        messages reveal/confirm the commit (inclusive of the first round).

        Used by the analytic step-latency model in the Table I bench.
        """
        if not 1 <= commit_e <= self.length:
            raise ConfigError(f"invalid commit position {commit_e}")
        return commit_e
