#!/usr/bin/env python3
"""A replicated key-value service over real TCP sockets.

The deepest end-to-end demo in the repository: the SMR layer
(:mod:`repro.smr`) rides LightDAG2, which rides the binary wire codec
(:mod:`repro.codec`), which rides real loopback TCP connections
(:mod:`repro.net.tcp`).  Four replicas accept concurrent writes —
including two conflicting compare-and-swap operations — order them through
consensus, and converge to byte-identical state.

Run:  python examples/smr_service.py
"""

import asyncio

from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.harness.cluster import assemble
from repro.net.tcp import TcpCluster
from repro.smr.kv import KvStateMachine
from repro.smr.replica import SERVICE_GC_DEPTH, SmrReplica


async def main_async() -> None:
    system = SystemConfig(n=4)
    protocol = ProtocolConfig(batch_size=32, gc_depth=SERVICE_GC_DEPTH)
    replicas = [SmrReplica(i, KvStateMachine()) for i in range(system.n)]
    assembly = assemble(
        system,
        protocol,
        LightDag2Node,
        payload_source=lambda i: replicas[i].payload_source,
        on_commit=lambda i: replicas[i].on_commit,
    )
    cluster = TcpCluster(assembly.factories)

    print("4 replicas over loopback TCP, LightDAG2, binary wire codec\n")
    replicas[0].submit(b"SET balance 100")
    cas_a = replicas[1].submit(b"CAS balance 100 250")  # two racing CAS ops:
    cas_b = replicas[2].submit(b"CAS balance 100 900")  # exactly one can win
    replicas[3].submit(b"SET owner dana")

    await cluster.run(4.0)

    print("Per-replica state after convergence:")
    for replica in replicas:
        print(f"  replica {replica.replica_id}: "
              f"{dict(sorted(replica.machine.data.items()))} "
              f"(state digest {replica.machine.state_digest().hex()[:12]})")

    digests = {r.machine.state_digest() for r in replicas}
    assert len(digests) == 1, "replicas diverged!"
    result_a = replicas[1].result_of(cas_a)
    result_b = replicas[2].result_of(cas_b)
    print(f"\nracing CAS results: replica1 -> {result_a}, replica2 -> {result_b}")
    assert {result_a, result_b} == {b"OK", b"FAIL"}
    print(f"frames on the wire: {cluster.frames_sent} sent, "
          f"{cluster.frames_received} received, "
          f"{cluster.decode_errors} decode errors")
    print("\nAll replicas agree; exactly one CAS won — everywhere the same one ✓")


if __name__ == "__main__":
    asyncio.run(main_async())
