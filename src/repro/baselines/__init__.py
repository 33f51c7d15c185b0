"""Baseline protocols the paper compares against (Table I, §VI).

All three are implemented over the same engine, broadcast substrate, and
network model as LightDAG — the paper's own methodology ("we implement all
of LightDAG, Tusk, and BullShark in Golang using a common framework to
ensure a fair and consistent comparison", §VI-A):

* :mod:`repro.baselines.dagrider` — DAG-Rider [8]: 4 RBC rounds per wave,
  leader committed on 2f+1 wave-end references.  Best latency 12 steps.
* :mod:`repro.baselines.tusk` — Tusk [10]: 3 RBC rounds per wave, leader
  committed on f+1 second-round references.  Best latency 9 (7) steps.
* :mod:`repro.baselines.bullshark` — Bullshark [9] (partially-synchronous
  steady state): predefined leaders every other RBC round, committed on
  2f+1 next-round references; a leader-wait timeout keeps honest replicas
  referencing slow leaders, which is exactly the surface the Fig. 15
  leader-delay attack exploits.  Best latency 6 steps.
"""
