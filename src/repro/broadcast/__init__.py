"""Broadcast protocols: PBC, CBC, and RBC.

The paper's whole contribution is swapping the broadcast primitive under a
DAG consensus (§I): *Reliable Broadcast* (RBC, 3 steps — used by DAG-Rider,
Tusk, Bullshark) versus *Consistent Broadcast* (CBC, 2 steps — LightDAG1
and LightDAG2's middle round) versus *Plain Broadcast* (PBC, 1 step —
LightDAG2's first and third rounds).

Property matrix (§II-B, §III-B):

==============  ===========  ========  =========  ========
property        consistency  validity  integrity  totality
==============  ===========  ========  =========  ========
RBC (3 steps)   yes          yes       yes        yes
CBC (2 steps)   yes          yes       yes        **no**
PBC (1 step)    **no**       yes       no         **no**
==============  ===========  ========  =========  ========

The managers here are *per-replica* components owned by a protocol node:
they track per-instance state (echo/ready counts), decide deliveries, and
delegate policy questions — "may I echo this block?" (LightDAG2's Rule 2/3
live here as a vote policy) and "are its ancestors present?" (the §IV-A
retrieval gate) — back to the owning protocol through callbacks.
"""
