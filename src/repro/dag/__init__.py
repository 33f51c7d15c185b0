"""DAG substrate: blocks, rounds/waves, the block store, and the ledger.

Shared by LightDAG1, LightDAG2 and all three baselines.  The vocabulary
follows §III-A of the paper:

* a **slot** is a position ``(round, replica)`` in the DAG;
* a block **directly references** its *parents* (blocks from the previous
  round whose hashes it includes) and transitively references *ancestors*
  (a block is an ancestor of itself);
* rounds are grouped into **waves**; LightDAG1 overlaps the last round of a
  wave with the first round of the next (⟨w,3⟩ = ⟨w+1,1⟩).

The store supports both the strict one-block-per-slot regime (CBC/RBC
consistency) and the permissive multi-block regime LightDAG2 needs for
PBC equivocation.
"""
