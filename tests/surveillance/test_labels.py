"""Unit tests for repro.surveillance.labels."""

import pytest

from repro.surveillance.labels import (EMPTY, from_mask, join, mask_subset,
                                       permitted, singleton, to_mask)


class TestLabelAlgebra:
    def test_singleton(self):
        assert singleton(3) == frozenset({3})

    def test_singleton_rejects_zero(self):
        with pytest.raises(ValueError):
            singleton(0)

    def test_join(self):
        assert join({1, 2}, {2, 3}, EMPTY) == frozenset({1, 2, 3})
        assert join() == EMPTY

    def test_join_idempotent_commutative_associative(self):
        a, b, c = frozenset({1}), frozenset({2, 3}), frozenset({1, 3})
        assert join(a, a) == a
        assert join(a, b) == join(b, a)
        assert join(join(a, b), c) == join(a, join(b, c))

    def test_permitted_is_subset_test(self):
        allowed = frozenset({1, 3})
        assert permitted(EMPTY, allowed)
        assert permitted(frozenset({1}), allowed)
        assert permitted(frozenset({1, 3}), allowed)
        assert not permitted(frozenset({2}), allowed)
        assert not permitted(frozenset({1, 2}), allowed)


class TestMaskCodec:
    def test_round_trip(self):
        for label in (EMPTY, frozenset({1}), frozenset({2, 5}),
                      frozenset({1, 2, 3, 8})):
            assert from_mask(to_mask(label)) == label

    def test_known_encodings(self):
        assert to_mask({1}) == 0b1
        assert to_mask({2}) == 0b10
        assert to_mask({1, 3}) == 0b101
        assert to_mask(EMPTY) == 0

    def test_mask_subset_matches_set_subset(self):
        import itertools

        universe = [frozenset(c) for size in range(4)
                    for c in itertools.combinations((1, 2, 3), size)]
        for a in universe:
            for b in universe:
                assert mask_subset(to_mask(a), to_mask(b)) == (a <= b)

    def test_zero_mask_is_the_shared_empty_label(self):
        assert from_mask(0) is EMPTY

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            to_mask({0})
        with pytest.raises(ValueError):
            from_mask(-1)
