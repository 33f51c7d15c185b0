"""Tests for repro.dag.rounds: wave/round arithmetic for every protocol shape."""

import pytest
from hypothesis import given, strategies as st

from repro.dag.rounds import WaveStructure
from repro.errors import ConfigError


class TestLightDag1Shape:
    """Overlapping 3-round waves: ⟨w,3⟩ = ⟨w+1,1⟩ (§III-C)."""

    wave = WaveStructure(3, overlap=True)

    def test_stride(self):
        assert self.wave.stride == 2

    def test_wave1_rounds(self):
        assert [self.wave.round_of(1, e) for e in (1, 2, 3)] == [1, 2, 3]

    def test_boundary_shared(self):
        assert self.wave.round_of(1, 3) == self.wave.round_of(2, 1) == 3

    def test_paper_formula(self):
        # §III-C: "the one-dimensional round number r is given by 2w + e"
        # (up to the constant offset of the paper's numbering origin);
        # consecutive first rounds differ by 2.
        assert self.wave.first_round(5) - self.wave.first_round(4) == 2

    def test_waves_containing_boundary(self):
        assert self.wave.waves_containing(3) == [(1, 3), (2, 1)]

    def test_waves_containing_middle(self):
        assert self.wave.waves_containing(4) == [(2, 2)]

    def test_wave_of_first_round(self):
        assert self.wave.wave_of_first_round(1) == 1
        assert self.wave.wave_of_first_round(3) == 2
        assert self.wave.wave_of_first_round(2) is None

    def test_wave_of_last_round(self):
        assert self.wave.wave_of_last_round(3) == 1
        assert self.wave.wave_of_last_round(5) == 2
        assert self.wave.wave_of_last_round(2) is None


class TestLightDag2Shape:
    """Non-overlapping 3-round waves (PBC, CBC, PBC)."""

    wave = WaveStructure(3, overlap=False)

    def test_wave_rounds(self):
        assert [self.wave.round_of(1, e) for e in (1, 2, 3)] == [1, 2, 3]
        assert [self.wave.round_of(2, e) for e in (1, 2, 3)] == [4, 5, 6]

    def test_no_shared_rounds(self):
        for r in range(1, 30):
            assert len(self.wave.waves_containing(r)) == 1

    def test_first_last(self):
        assert self.wave.first_round(3) == 7
        assert self.wave.last_round(3) == 9


class TestBaselineShapes:
    def test_dagrider_four_rounds(self):
        wave = WaveStructure(4)
        assert wave.first_round(2) == 5
        assert wave.last_round(2) == 8

    def test_bullshark_two_rounds(self):
        wave = WaveStructure(2)
        assert [wave.first_round(w) for w in (1, 2, 3)] == [1, 3, 5]

    def test_position_in_wave(self):
        wave = WaveStructure(4)
        assert wave.position_in_wave(6, 2) == 2
        with pytest.raises(ConfigError):
            wave.position_in_wave(6, 1)


class TestValidation:
    def test_too_short_wave(self):
        with pytest.raises(ConfigError):
            WaveStructure(1)

    def test_overlap_needs_three(self):
        with pytest.raises(ConfigError):
            WaveStructure(2, overlap=True)

    def test_invalid_positions(self):
        wave = WaveStructure(3)
        with pytest.raises(ConfigError):
            wave.round_of(0, 1)
        with pytest.raises(ConfigError):
            wave.round_of(1, 4)
        with pytest.raises(ConfigError):
            wave.rounds_to_commit(0)

    def test_round_zero_in_no_wave(self):
        assert WaveStructure(3).waves_containing(0) == []
        assert WaveStructure(3, overlap=True).waves_containing(-2) == []


@given(
    length=st.integers(min_value=2, max_value=6),
    overlap=st.booleans(),
    wave_num=st.integers(min_value=1, max_value=50),
)
def test_property_roundtrip(length, overlap, wave_num):
    """round_of and waves_containing are mutually consistent."""
    if overlap and length < 3:
        return
    wave = WaveStructure(length, overlap=overlap)
    for e in range(1, length + 1):
        r = wave.round_of(wave_num, e)
        assert (wave_num, e) in wave.waves_containing(r)


@given(
    length=st.integers(min_value=2, max_value=6),
    overlap=st.booleans(),
    round_=st.integers(min_value=1, max_value=200),
)
def test_property_every_round_has_a_wave(length, overlap, round_):
    """No round is orphaned from the wave structure."""
    if overlap and length < 3:
        return
    wave = WaveStructure(length, overlap=overlap)
    memberships = wave.waves_containing(round_)
    assert 1 <= len(memberships) <= 2
    for w, e in memberships:
        assert wave.round_of(w, e) == round_


@given(
    length=st.integers(min_value=2, max_value=6),
    overlap=st.booleans(),
    round_=st.integers(min_value=-3, max_value=200),
)
def test_property_last_round_arithmetic_matches_membership(length, overlap, round_):
    """``wave_of_last_round`` computes what ``waves_containing`` lists."""
    if overlap and length < 3:
        return
    wave = WaveStructure(length, overlap=overlap)
    listed = [w for w, e in wave.waves_containing(round_) if e == length]
    assert wave.wave_of_last_round(round_) == (listed[0] if listed else None)
