"""Wire-size constants for the bandwidth model.

Message classes compute their :meth:`~repro.net.interfaces.Message.wire_size`
from these constants so the simulator charges realistic byte counts without
actually serializing anything.  Values approximate a compact binary codec
(the paper uses go-msgpack):

* digests are SHA-256 (32 B),
* signatures are 64 B (two 32-byte scalars; same as ed25519),
* coin shares carry a group element plus a DLEQ proof (96 B),
* every message pays a small framing overhead.
"""

DIGEST_SIZE = 32
SIGNATURE_SIZE = 64
COIN_SHARE_SIZE = 96
HEADER_OVERHEAD = 16  # type tag, round, author, lengths
INT_SIZE = 8


def block_wire_size(
    num_parents: int,
    num_txs: int,
    tx_size: int,
    num_proofs: int = 0,
) -> int:
    """Bytes a block occupies: header + parent refs + payload + extras.

    ``num_proofs`` counts embedded Byzantine proofs (LightDAG2 Rule 2/3,
    each two conflicting block headers ≈ 2 × (header + digest + signature)).
    """
    proofs = num_proofs * 2 * (HEADER_OVERHEAD + DIGEST_SIZE + SIGNATURE_SIZE)
    return (
        HEADER_OVERHEAD
        + SIGNATURE_SIZE
        # Only a coin protocol's last-round blocks carry a share, but every
        # block is charged for one: a flat charge keeps the model's byte
        # counts independent of the round and the leader source.  Billing
        # only the carrying blocks is an open calibration question
        # (DESIGN.md, "Known paper ambiguities").
        + COIN_SHARE_SIZE
        + num_parents * DIGEST_SIZE
        + num_txs * tx_size
        + proofs
    )
