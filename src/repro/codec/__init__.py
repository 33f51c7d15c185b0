"""Binary wire codec.

The paper's prototype serializes with go-msgpack; this package is its
counterpart: a compact, versioned, dependency-free binary encoding for
every message the protocols exchange.  The simulator never serializes
(its :meth:`~repro.net.interfaces.Message.wire_size` is a model), but the
TCP transport (:mod:`repro.net.tcp`) sends real frames, and the codec's
round-trip guarantees are property-tested with hypothesis.

Layout conventions (:mod:`repro.codec.primitives`):

* unsigned LEB128 varints for counts and small ints,
* length-prefixed big-endian byte strings for digests/keys/big ints,
* IEEE-754 doubles for timestamps,
* a one-byte tag for every union (message kind, signature kind, coin
  payload kind).

The package imports none of its modules: :mod:`repro.crypto.coin` encodes
coin shares with :mod:`.primitives`, below the blocks that carry them.
"""
