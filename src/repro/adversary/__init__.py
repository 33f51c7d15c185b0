"""Adversary models for the unfavorable-situation experiments (§VI-A).

The paper's adversary cannot break safety or liveness (the protocols are
proven), so its power is spent on efficiency.  Every attack here is a
:class:`~repro.adversary.schedule.FaultSchedule` — timed phases in one text
grammar — and §VI-A's named attacks are entries of
:data:`~repro.adversary.schedule.ATTACKS`:

* **Crash** (vs. Tusk and LightDAG1) — crash ``f`` replicas to cut the
  number of proposed blocks per round: ``crash@0+0:victims=…``.
* **Leader delay** (vs. Bullshark) — delay the predefined leaders' blocks
  to break the optimistic path: ``leader-delay@0+inf:delay=1``.
* **Scheduled equivocation** (vs. LightDAG2) — one Byzantine replica per
  wave equivocates in the first PBC round, forcing Rule-2 reproposals
  (> n second-round blocks) until it is identified and excluded:
  ``equivocate`` phases over
  :class:`~repro.adversary.byzantine.EquivocatingLightDag2Node`.
* **Random scheduling** — every message waits an independent random extra
  delay, the asynchronous adversary's power exercised unstructuredly.  It
  cannot break a correct protocol, which is why the property-based safety
  tests run under it: any ledger divergence it provokes is a protocol bug,
  not an adversary feature.  ``delay@0+inf:max=0.2``.
* **Retrieval withholding** (vs. the §IV-A recovery path) — replicas that
  broadcast and vote honestly but ignore (or garbage-answer) retrieval
  requests, forcing requesters to re-ask other peers on their recovery
  tick: ``withhold`` phases over
  :class:`~repro.adversary.withhold.WithholdingResponder`.

Message-level phases are driven by
:class:`~repro.adversary.schedule.ScheduleAdversary` through the
simulator's ``on_send`` hook; behavioural (Byzantine) phases are
alternative Node classes installed for the corrupted replica indices.
"""
