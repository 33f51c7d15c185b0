"""Micro-benchmarks: the cryptographic substrate.

Not a paper figure — these quantify the per-operation costs behind the
crypto-backend ablation (DESIGN.md §5.5) and justify the default choice of
the HMAC backend for large simulator sweeps.
"""

import dataclasses
import random

import pytest

from repro.config import SystemConfig
from repro.crypto.backend import HmacBackend, NullBackend, SchnorrBackend
from repro.crypto.coin import ThresholdCoin
from repro.crypto.group import default_group
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import TrustedDealer
from repro.crypto.memo import VerifiedMemo
from repro.crypto.shamir import recover_secret, split_secret

SYSTEM = SystemConfig(n=4, crypto="schnorr", seed=0)
CHAINS = TrustedDealer(SYSTEM).deal()
MSG = hash_fields("benchmark-message")


def cold_chain():
    """Chain 0 with an empty memo of its own: a first-sight measurement must
    not hit the deal-wide one that every user of ``CHAINS`` shares."""
    return dataclasses.replace(CHAINS[0], verified=VerifiedMemo())


class TestSigningBackends:
    def test_schnorr_sign(self, benchmark):
        backend = SchnorrBackend(CHAINS[0])
        benchmark(backend.sign, MSG)

    def test_schnorr_verify(self, benchmark):
        # Steady-state: repeated claims hit the verified-claims memo.
        backend = SchnorrBackend(CHAINS[0])
        sig = backend.sign(MSG)
        assert benchmark(backend.verify, 0, MSG, sig)

    def test_schnorr_verify_cold(self, benchmark):
        # The un-memoized equation check (first sight of a signature).
        from repro.crypto.schnorr import schnorr_verify

        group = CHAINS[0].group  # the deal's view: pk's table lives there
        keypair = CHAINS[0].keypair
        sig = SchnorrBackend(CHAINS[0]).sign(MSG)
        assert benchmark(schnorr_verify, group, keypair.pk, MSG, sig)

    def test_hmac_sign(self, benchmark):
        backend = HmacBackend(0, SYSTEM)
        benchmark(backend.sign, MSG)

    def test_hmac_verify(self, benchmark):
        backend = HmacBackend(0, SYSTEM)
        sig = backend.sign(MSG)
        assert benchmark(backend.verify, 0, MSG, sig)

    def test_null_sign(self, benchmark):
        benchmark(NullBackend().sign, MSG)


class TestBatchVerification:
    """The intake hot path: n-1 echo-class signatures per round slot."""

    def _echo_items(self, count=16):
        items = []
        for i in range(count):
            signer = i % len(CHAINS)
            digest = hash_fields("echo", i)
            sig = SchnorrBackend(CHAINS[signer]).sign(digest)
            items.append((signer, digest, sig))
        return items

    def test_schnorr_verify_batch16(self, benchmark):
        items = self._echo_items(16)

        def batch():
            # Fresh memo per run so it never short-circuits the batch
            # equation itself.
            return SchnorrBackend(cold_chain()).verify_batch(items)

        assert benchmark(batch)

    def test_schnorr_verify_one_by_one16(self, benchmark):
        items = self._echo_items(16)

        def sweep():
            backend = SchnorrBackend(cold_chain())
            return all(backend.verify(*item) for item in items)

        assert benchmark(sweep)

    def test_schnorr_verify_memo_hit(self, benchmark):
        backend = SchnorrBackend(CHAINS[0])
        sig = backend.sign(MSG)
        assert backend.verify(0, MSG, sig)  # populate the memo
        assert benchmark(backend.verify, 0, MSG, sig)


class TestCoin:
    def test_threshold_coin_share(self, benchmark):
        coin = ThresholdCoin(CHAINS[0])
        benchmark(coin.make_share, 1)

    def test_threshold_coin_verify_share(self, benchmark):
        coins = [ThresholdCoin(c) for c in CHAINS]
        share = coins[1].make_share(1)

        def verify_cold():
            coin = ThresholdCoin(cold_chain())  # fresh memo: full DLEQ check
            return coin.verify_share(share)

        assert benchmark(verify_cold)

    def test_threshold_verify_partial(self, benchmark):
        coins = [ThresholdCoin(c) for c in CHAINS]
        share = coins[1].make_share(1)
        message = coins[0]._coin_input(1)

        def verify_cold():
            return ThresholdCoin(cold_chain()).prf.verify_partial(
                message, share.payload
            )

        assert benchmark(verify_cold)

    def test_threshold_coin_reveal(self, benchmark):
        shares = [ThresholdCoin(c).make_share(1) for c in CHAINS]

        def reveal():
            coin = ThresholdCoin(cold_chain())
            out = None
            for share in shares:
                result = coin.add_share(share)
                out = result if result is not None else out
            return out

        assert benchmark(reveal) is not None

    @pytest.mark.parametrize("n", [16, 64])
    def test_threshold_combine(self, benchmark, n):
        # The reveal's arithmetic alone: every partial already in the deal's
        # verified-claims memo, the point set's integer coefficients cached.
        chains = TrustedDealer(SystemConfig(n=n, crypto="schnorr", seed=11)).deal()
        coins = [ThresholdCoin(c) for c in chains]
        message = coins[0]._coin_input(1)
        signers = random.Random(n).sample(coins, chains[0].coin_threshold)
        partials = [coin.make_share(1).payload for coin in signers]
        prf = coins[0].prf
        expected = prf.combine(message, partials)  # warms both memos
        assert benchmark(prf.combine, message, partials) == expected


class TestPrimitives:
    def test_hash_fields(self, benchmark):
        benchmark(hash_fields, "block", 12, 3, (b"\x00" * 32,) * 4)

    def test_group_exp(self, benchmark):
        # The generator is always a registered fixed base: comb-table path.
        group = default_group(256)
        benchmark(group.exp, group.g, 0xDEADBEEF12345678)

    def test_group_exp_unregistered(self, benchmark):
        # Arbitrary base: falls back to CPython pow (the pre-table cost).
        group = default_group(256)
        base = pow(group.g, 31337, group.p)
        benchmark(group.exp, base, 0xDEADBEEF12345678)

    def test_fixed_base_table_build(self, benchmark):
        # What a dealt key pays on first use (the width its use count earns).
        shared = default_group(256)
        base = pow(shared.g, 31337, shared.p)

        def first_use():
            group = shared.for_deal()
            group.register_fixed_base(base)
            return group.exp_reduced(base, 0xDEADBEEF12345678)

        assert benchmark(first_use) == pow(base, 0xDEADBEEF12345678, shared.p)

    def test_group_multi_exp2(self, benchmark):
        # The DLEQ verification shape: g^s * h^(q-c) in one pass.
        group = default_group(256)
        h = pow(group.g, 31337, group.p)
        pairs = ((group.g, 0xDEADBEEF12345678), (h, group.q - 12345))
        benchmark(group.multi_exp, pairs)

    def test_shamir_split(self, benchmark):
        group = default_group(256)
        rng = random.Random(1)
        benchmark(split_secret, 12345, 5, 7, group.q, rng)

    def test_shamir_recover(self, benchmark):
        group = default_group(256)
        shares = split_secret(12345, 5, 7, group.q, random.Random(1))
        assert benchmark(recover_secret, shares[:5], group.q) == 12345
