"""Tests for idempotent endofunctions on {0, ..., m-1}."""

import itertools
import math
import re

import pytest
from test_acceptance import _brute_idempotent
from test_verify import _Index

from ouro.finite import (
    COUNT_LIMIT, ENUMERATION_LIMIT, FiniteEndofunction, count_idempotent,
    enumerate_idempotent, image_fixing_holds, is_idempotent, iterate,
)

# Number of idempotent self-maps for m = 1..7, frozen from the brute-force
# enumeration (and equal to sum_k C(m,k) k^(m-k)).
KNOWN_COUNTS = {1: 1, 2: 3, 3: 10, 4: 41, 5: 196, 6: 1057, 7: 6322}


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteEndofunction(())
    with pytest.raises(ValueError):
        FiniteEndofunction((0, 2))
    with pytest.raises(ValueError):
        FiniteEndofunction((-1,))
    for bad in [(0, 1.5), (0, 1.0), ("1", "0"), (True, 0)]:
        with pytest.raises(ValueError, match="^table value must be an integer"):
            FiniteEndofunction(bad)
    assert type(FiniteEndofunction([1, 1]).table) is tuple
    f = FiniteEndofunction((1, 1, 0))
    assert f.m == 3
    assert f(0) == 1
    assert f.image() == (0, 1)


def test_is_idempotent_directly():
    assert is_idempotent(FiniteEndofunction((0, 1, 2)))
    assert is_idempotent(FiniteEndofunction((0, 0, 0)))
    assert is_idempotent(FiniteEndofunction((0, 1, 1)))
    # a 2-cycle is not idempotent
    assert not is_idempotent(FiniteEndofunction((1, 0)))
    # maps into a fixed point after two steps, but not after one
    assert not is_idempotent(FiniteEndofunction((1, 2, 2)))


def test_closed_form_counts():
    for m, count in KNOWN_COUNTS.items():
        assert count_idempotent(m) == count
    with pytest.raises(ValueError):
        count_idempotent(0)
    with pytest.raises(ValueError):
        count_idempotent(COUNT_LIMIT + 1)


def test_sizes_and_powers_take_integers_only():
    # m and k are read through operator.index, as the table values are
    swap = FiniteEndofunction((1, 0))
    for call, name in [(count_idempotent, "m"), (enumerate_idempotent, "m"),
                       (lambda k: iterate(swap, k), "k")]:
        for bad in (True, 3.0, 2.5, "3"):
            message = f"{name} must be an integer, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(bad)
    assert count_idempotent(_Index(4)) == 41
    assert len(enumerate_idempotent(_Index(3))) == 10
    assert iterate(swap, _Index(2)).table == (0, 1)


def test_enumeration_counts_match_brute_force():
    for m in range(1, 6):
        maps = _brute_idempotent(m)
        assert len(maps) == KNOWN_COUNTS[m]
        assert all(is_idempotent(f) for f in maps)


def test_m3_listing_is_exactly_the_ten_maps():
    got = [f.table for f in enumerate_idempotent(3)]
    assert got == [
        (0, 0, 0), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
        (0, 2, 2), (1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 2, 2),
    ]


def test_constructive_equals_brute():
    for m in range(1, 6):
        brute = _brute_idempotent(m)
        constructive = enumerate_idempotent(m)
        assert brute == constructive


def test_listing_is_sorted_and_duplicate_free():
    for m in (4, 6):
        tables = [f.table for f in enumerate_idempotent(m)]
        assert tables == sorted(tables)
        assert len(tables) == len(set(tables))


def test_constructive_count_at_the_limit():
    assert len(enumerate_idempotent(ENUMERATION_LIMIT)) == KNOWN_COUNTS[7]


def test_enumeration_limits():
    with pytest.raises(ValueError):
        enumerate_idempotent(0)
    with pytest.raises(ValueError):
        enumerate_idempotent(ENUMERATION_LIMIT + 1)


def test_image_fixing_is_equivalent_to_idempotence():
    # equivalence over every self-map, not just the idempotent ones
    for m in range(1, 5):
        for table in itertools.product(range(m), repeat=m):
            f = FiniteEndofunction(table)
            assert is_idempotent(f) == image_fixing_holds(f)


def test_iterate_powers():
    swap = FiniteEndofunction((1, 0))
    assert iterate(swap, 1) == swap
    assert iterate(swap, 2).table == (0, 1)
    assert iterate(swap, 3) == swap
    with pytest.raises(ValueError):
        iterate(swap, 0)


def test_idempotent_maps_are_stable_under_iteration():
    for f in enumerate_idempotent(4):
        assert iterate(f, 2) == f
        assert iterate(f, 5) == f


def test_composition_is_not_closed_on_idempotents():
    # both factors fix their images, their composite does not
    f = FiniteEndofunction((0, 0, 2))
    g = FiniteEndofunction((2, 1, 2))
    assert is_idempotent(f) and is_idempotent(g)
    composite = FiniteEndofunction(tuple(f(g(x)) for x in range(3)))
    assert composite.table == (2, 0, 2)
    assert not is_idempotent(composite)


def test_closed_form_matches_the_egf_recurrence_up_to_the_cap():
    # Independent oracle: the e.g.f. of idempotent maps is exp(x * e^x), so
    # a(n+1) = sum_k C(n, k) * (k + 1) * a(n - k) with a(0) = 1.
    a = [1]
    for n in range(COUNT_LIMIT):
        a.append(sum(math.comb(n, k) * (k + 1) * a[n - k]
                     for k in range(n + 1)))
    for m in range(1, COUNT_LIMIT + 1):
        assert count_idempotent(m) == a[m], m
    # the capped count fits int64 but not a double's 53-bit mantissa
    assert count_idempotent(COUNT_LIMIT) == 27272621155678841
    assert 2**53 < count_idempotent(COUNT_LIMIT) < 2**63
