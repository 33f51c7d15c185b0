"""Codec for the full protocol message set.

Every :class:`~repro.net.interfaces.Message` subclass used on the wire
gets a one-byte kind tag; :func:`encode_message` / :func:`decode_message`
are the single entry points the TCP transport uses.  Unknown tags raise
:class:`~repro.codec.primitives.CodecError` — forward compatibility is a
framing concern, not a silent-skip concern, in a BFT setting.
"""

from __future__ import annotations

from ..broadcast.messages import (
    MAX_REQUEST_DIGESTS,
    BlockEcho,
    BlockReady,
    BlockVal,
    ByzantineProofMsg,
    CoinShareMsg,
    CoinShareRequest,
    ContradictionNotice,
    RetrievalRequest,
    RetrievalResponse,
)
from ..crypto.coin import CoinShare
from ..crypto.hashing import intern_digest
from ..crypto.threshold import DleqProof, PartialEval
from ..net.interfaces import Message
from .blocks import block_to_bytes, decode_block
from .primitives import CodecError, Reader, Writer

_KIND_VAL = 1
_KIND_ECHO = 2
_KIND_READY = 3
_KIND_RETR_REQ = 4
_KIND_RETR_RESP = 5
_KIND_COIN = 6
_KIND_CONTRADICTION = 7
_KIND_BYZ_PROOF = 8
_KIND_COIN_REQ = 9

_COIN_TOKEN = 0
_COIN_PARTIAL = 1


def _encode_coin_share(w: Writer, share: CoinShare) -> None:
    w.uvarint(share.wave)
    w.uvarint(share.replica)
    payload = share.payload
    if isinstance(payload, bytes):
        w.byte(_COIN_TOKEN)
        w.lp_bytes(payload)
    elif isinstance(payload, PartialEval):
        w.byte(_COIN_PARTIAL)
        w.uvarint(payload.index)
        w.bigint(payload.value)
        w.bigint(payload.proof.c)
        w.bigint(payload.proof.s)
    else:
        raise CodecError(f"unknown coin payload {type(payload).__name__}")


def _decode_coin_share(r: Reader) -> CoinShare:
    wave = r.uvarint()
    replica = r.uvarint()
    tag = r.byte()
    if tag == _COIN_TOKEN:
        payload: object = r.lp_bytes()
    elif tag == _COIN_PARTIAL:
        payload = PartialEval(
            index=r.uvarint(),
            value=r.bigint(),
            proof=DleqProof(c=r.bigint(), s=r.bigint()),
        )
    else:
        raise CodecError(f"unknown coin payload tag {tag}")
    return CoinShare(wave=wave, replica=replica, payload=payload)


def encode_message(msg: Message) -> bytes:
    """Encode any wire message to bytes (kind tag + body)."""
    w = Writer()
    if isinstance(msg, BlockVal):
        w.byte(_KIND_VAL)
        w.raw(block_to_bytes(msg.block))
    elif isinstance(msg, BlockEcho):
        w.byte(_KIND_ECHO)
        w.uvarint(msg.round)
        w.uvarint(msg.author)
        w.lp_bytes(msg.digest)
    elif isinstance(msg, BlockReady):
        w.byte(_KIND_READY)
        w.uvarint(msg.round)
        w.uvarint(msg.author)
        w.lp_bytes(msg.digest)
    elif isinstance(msg, RetrievalRequest):
        w.byte(_KIND_RETR_REQ)
        w.uvarint(len(msg.digests))
        for digest in msg.digests:
            w.lp_bytes(digest)
    elif isinstance(msg, RetrievalResponse):
        w.byte(_KIND_RETR_RESP)
        w.uvarint(len(msg.blocks))
        for block in msg.blocks:
            w.raw(block_to_bytes(block))
    elif isinstance(msg, CoinShareMsg):
        w.byte(_KIND_COIN)
        _encode_coin_share(w, msg.share)
    elif isinstance(msg, CoinShareRequest):
        w.byte(_KIND_COIN_REQ)
        w.uvarint(msg.wave)
    elif isinstance(msg, ContradictionNotice):
        w.byte(_KIND_CONTRADICTION)
        w.lp_bytes(msg.objected)
        w.raw(block_to_bytes(msg.conflicting_block))
    elif isinstance(msg, ByzantineProofMsg):
        w.byte(_KIND_BYZ_PROOF)
        w.uvarint(msg.culprit)
        w.raw(block_to_bytes(msg.block_a))
        w.raw(block_to_bytes(msg.block_b))
        w.lp_bytes(msg.objected)
    else:
        raise CodecError(f"cannot encode message type {type(msg).__name__}")
    return w.getvalue()


def encoded_wire_bytes(msg: Message) -> bytes:
    """Encode ``msg`` once and memoize the bytes on the instance.

    The transports fan every message out to ``n-1`` peers; the payload
    bytes are identical per recipient, so serializing per send is Θ(n)
    redundant work per broadcast.  Message dataclasses are frozen, which
    makes the memo impossible to invalidate — the bytes can never go
    stale.  Falls back to a plain encode for slotted/foreign messages.
    """
    try:
        cached = msg.__dict__.get("_wire_bytes")
    except AttributeError:  # __slots__-style message: nowhere to memoize
        return encode_message(msg)
    if cached is None:
        cached = encode_message(msg)
        object.__setattr__(msg, "_wire_bytes", cached)
    return cached


def decode_message(data: bytes) -> Message:
    """Decode one message; rejects unknown kinds and trailing bytes."""
    r = Reader(data)
    kind = r.byte()
    msg: Message
    if kind == _KIND_VAL:
        msg = BlockVal(r.nested(decode_block))
    elif kind == _KIND_ECHO:
        msg = BlockEcho(
            round=r.uvarint(), author=r.uvarint(),
            digest=intern_digest(r.lp_bytes()),
        )
    elif kind == _KIND_READY:
        msg = BlockReady(
            round=r.uvarint(), author=r.uvarint(),
            digest=intern_digest(r.lp_bytes()),
        )
    elif kind == _KIND_RETR_REQ:
        count = r.uvarint()
        # Bound claimed element counts before looping: a malicious frame
        # announcing 2^60 digests must fail fast, not drain the reader.
        if count > MAX_REQUEST_DIGESTS:
            raise CodecError(f"retrieval request claims {count} digests")
        msg = RetrievalRequest(
            tuple(intern_digest(r.lp_bytes()) for _ in range(count))
        )
    elif kind == _KIND_RETR_RESP:
        count = r.uvarint()
        if count > MAX_REQUEST_DIGESTS:
            raise CodecError(f"retrieval response claims {count} blocks")
        msg = RetrievalResponse(tuple(r.nested(decode_block) for _ in range(count)))
    elif kind == _KIND_COIN:
        msg = CoinShareMsg(_decode_coin_share(r))
    elif kind == _KIND_COIN_REQ:
        msg = CoinShareRequest(wave=r.uvarint())
    elif kind == _KIND_CONTRADICTION:
        msg = ContradictionNotice(
            objected=r.lp_bytes(), conflicting_block=r.nested(decode_block),
        )
    elif kind == _KIND_BYZ_PROOF:
        msg = ByzantineProofMsg(
            culprit=r.uvarint(),
            block_a=r.nested(decode_block),
            block_b=r.nested(decode_block),
            objected=r.lp_bytes(),
        )
    else:
        raise CodecError(f"unknown message kind {kind}")
    r.expect_eof()
    return msg
