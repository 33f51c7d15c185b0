"""Tests for repro.crypto.coin: the Global Perfect Coin (§III-B.2)."""

import pytest

from repro.config import SystemConfig
from repro.crypto.coin import CoinShare, SeededCoin, ThresholdCoin, make_coin
from repro.crypto.keys import TrustedDealer
from repro.errors import ThresholdError


@pytest.fixture(scope="module")
def chains():
    return TrustedDealer(SystemConfig(n=4, crypto="schnorr"), coin_threshold=3).deal()


def reveal(coins, wave):
    """Feed every coin all shares; return the set of revealed leaders."""
    shares = [coin.make_share(wave) for coin in coins]
    leaders = set()
    for coin in coins:
        out = None
        for share in shares:
            result = coin.add_share(share)
            out = result if result is not None else out
        leaders.add(out)
    return leaders


class TestThresholdCoin:
    def test_agreement(self, chains):
        coins = [ThresholdCoin(c) for c in chains]
        leaders = reveal(coins, wave=1)
        assert len(leaders) == 1
        assert leaders.pop() in range(4)

    def test_no_reveal_below_threshold(self, chains):
        coins = [ThresholdCoin(c) for c in chains]
        shares = [coin.make_share(3) for coin in coins]
        assert coins[0].add_share(shares[0]) is None
        assert coins[0].add_share(shares[1]) is None
        assert coins[0].leader_of(3) is None
        assert coins[0].pending_share_count(3) == 2

    def test_reveal_exactly_at_threshold(self, chains):
        coins = [ThresholdCoin(c) for c in chains]
        shares = [coin.make_share(4) for coin in coins]
        coins[0].add_share(shares[0])
        coins[0].add_share(shares[1])
        assert coins[0].add_share(shares[2]) is not None

    def test_duplicate_shares_do_not_reveal(self, chains):
        coins = [ThresholdCoin(c) for c in chains]
        share = coins[1].make_share(5)
        assert coins[0].add_share(share) is None
        assert coins[0].add_share(share) is None
        assert coins[0].leader_of(5) is None

    def test_forged_share_ignored(self, chains):
        coins = [ThresholdCoin(c) for c in chains]
        good = coins[1].make_share(6)
        forged = CoinShare(wave=6, replica=2, payload=good.payload)
        assert coins[0].add_share(forged) is None
        assert coins[0].pending_share_count(6) == 0

    def test_wrong_wave_share_ignored(self, chains):
        coins = [ThresholdCoin(c) for c in chains]
        share = coins[1].make_share(7)
        moved = CoinShare(wave=8, replica=1, payload=share.payload)
        assert coins[0].add_share(moved) is None

    def test_different_waves_can_differ(self, chains):
        coins = [ThresholdCoin(c) for c in chains]
        outcomes = {next(iter(reveal(coins, wave=w))) for w in range(1, 30)}
        assert len(outcomes) > 1  # 29 waves over 4 replicas: astronomically unlikely to collide on one

    def test_cached_after_reveal(self, chains):
        coins = [ThresholdCoin(c) for c in chains]
        leader = next(iter(reveal(coins, wave=9)))
        extra = coins[3].make_share(9)
        assert coins[0].add_share(extra) == leader


# Leaders of waves 1..12 under ``TrustedDealer(SystemConfig(n=16, seed=11))``
# (captured at 7175ce3, when the reveal was one full-width power per partial).
PINNED_LEADERS_N16_SEED11 = [10, 5, 12, 8, 15, 4, 11, 9, 3, 12, 11, 1]


class TestPinnedLeaders:
    def test_three_arrival_orders_reveal_the_pinned_leaders(self):
        """Three replicas, three arrival orders — so three different
        11-subsets interpolate — and every one reveals the pinned leader."""
        chains = TrustedDealer(SystemConfig(n=16, seed=11)).deal()
        assert chains[0].coin_threshold == 11
        orders = {
            0: list(range(16)),
            5: list(range(15, -1, -1)),
            9: [(7 * i + 3) % 16 for i in range(16)],
        }
        assert len({frozenset(order[:11]) for order in orders.values()}) == 3
        for wave, pinned in enumerate(PINNED_LEADERS_N16_SEED11, start=1):
            coins = [ThresholdCoin(c) for c in chains]
            shares = [coin.make_share(wave) for coin in coins]
            for replica, order in orders.items():
                results = [coins[replica].add_share(shares[i]) for i in order[:11]]
                assert results[:10] == [None] * 10
                assert results[10] == pinned


class TestSeededCoin:
    def make_coins(self, n=4, threshold=3, seed=0):
        return [SeededCoin(n=n, threshold=threshold, seed=seed, replica_id=i) for i in range(n)]

    def test_agreement(self):
        leaders = reveal(self.make_coins(), wave=1)
        assert len(leaders) == 1

    def test_threshold_timing(self):
        coins = self.make_coins()
        shares = [coin.make_share(2) for coin in coins]
        assert coins[0].add_share(shares[0]) is None
        assert coins[0].add_share(shares[1]) is None
        assert coins[0].add_share(shares[2]) is not None

    def test_forged_token_rejected(self):
        coins = self.make_coins()
        good = coins[1].make_share(3)
        forged = CoinShare(wave=3, replica=2, payload=good.payload)
        assert not coins[0].verify_share(forged)

    def test_seed_changes_outcome_somewhere(self):
        a = [next(iter(reveal(self.make_coins(seed=1), w))) for w in range(1, 20)]
        b = [next(iter(reveal(self.make_coins(seed=2), w))) for w in range(1, 20)]
        assert a != b

    def test_output_in_range(self):
        for w in range(1, 20):
            leader = next(iter(reveal(self.make_coins(), w)))
            assert 0 <= leader < 4


class TestCoinFactoryAndValidation:
    def test_factory_picks_threshold_coin_for_schnorr(self, chains):
        assert isinstance(make_coin("schnorr", chains[0], seed=0), ThresholdCoin)

    def test_factory_picks_seeded_for_fast_backends(self, chains):
        assert isinstance(make_coin("hmac", chains[0], seed=0), SeededCoin)
        assert isinstance(make_coin("null", chains[0], seed=0), SeededCoin)

    def test_invalid_threshold(self):
        with pytest.raises(ThresholdError):
            SeededCoin(n=4, threshold=5, seed=0, replica_id=0)
        with pytest.raises(ThresholdError):
            SeededCoin(n=4, threshold=0, seed=0, replica_id=0)

    def test_seeded_matches_threshold_interface(self, chains):
        # Both implementations agree with themselves across replicas for
        # the same wave — the only property protocols rely on.
        tc = [ThresholdCoin(c) for c in chains]
        sc = [SeededCoin(4, 3, 0, i) for i in range(4)]
        assert len(reveal(tc, 1)) == 1
        assert len(reveal(sc, 1)) == 1
