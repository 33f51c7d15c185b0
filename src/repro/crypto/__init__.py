"""Cryptographic substrate for the LightDAG reproduction.

The paper assumes a PKI (digital signatures on every message) and a
threshold-crypto infrastructure established by ADKG, used to build the
Global Perfect Coin.  This package implements both from scratch:

* :mod:`repro.crypto.group` — a Schnorr group over an embedded safe prime.
* :mod:`repro.crypto.schnorr` — Schnorr signatures (the PKI).
* :mod:`repro.crypto.shamir` — Shamir secret sharing over the group order.
* :mod:`repro.crypto.threshold` — a threshold PRF with Chaum-Pedersen share
  proofs, the primitive behind the coin.
* :mod:`repro.crypto.coin` — the Global Perfect Coin (GPC, §III-B.2).
* :mod:`repro.crypto.backend` — pluggable signing backends so large
  simulations can trade cryptographic realism for speed.
* :mod:`repro.crypto.keys` — trusted-dealer key generation standing in for
  the ADKG of [17], [18] (documented substitution, see DESIGN.md §2).

The default 256-bit group is **simulation-grade, not production security**;
it preserves the semantics (unforgeability within a run, threshold reveal)
while keeping pure-Python modular exponentiation cheap.
"""
