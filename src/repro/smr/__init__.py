"""State-machine replication on top of LightDAG.

The consensus core orders opaque byte commands; this package turns that
total order into the application-facing abstraction a downstream user
actually wants (the blockchain framing of §II-A: clients submit
transactions, replicas apply them to identical state):

* :class:`~repro.smr.machine.StateMachine` — the deterministic application
  interface (``apply(command) -> result``).
* :class:`~repro.smr.replica.SmrReplica` — glues a protocol node to a
  state machine: queues client commands into block payloads, applies the
  committed sequence in ledger order, deduplicates by command id (a
  LightDAG2 reproposal may commit the same payload twice in one slot —
  exactly-once application is the SMR layer's job), and resolves client
  futures with results.
* :class:`~repro.smr.kv.KvStateMachine` — the reference application: a
  string key-value store with SET/GET/DEL/CAS.
"""
