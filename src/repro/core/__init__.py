"""The paper's contribution: LightDAG1 and LightDAG2.

* :mod:`repro.core.base` — the engine shared by both variants *and* the
  baselines: round advancement, broadcast wiring, the Global Perfect Coin
  plumbing, and the §IV-A retrieval integration.
* :mod:`repro.core.commit` — the one commit rule (§IV-B, Algorithm 1):
  direct commit, cascade and commit scope as a reading of the DAG alone.
* :mod:`repro.core.retrieval` — the block retrieval mechanism (§IV-A).
* :mod:`repro.core.lightdag1` — LightDAG1 (§IV): three overlapping CBC
  rounds per wave, f+1 direct-commit rule.
* :mod:`repro.core.lightdag2` — LightDAG2 (§V): PBC-CBC-PBC waves,
  Rules 1–4, Byzantine proofs and equivocator exclusion.
* :mod:`repro.core.proofs` — Byzantine-proof objects (Rule 2/3 evidence).
"""
