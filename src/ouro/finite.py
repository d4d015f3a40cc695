"""Idempotent endofunctions on the finite domain {0, ..., m-1}.

A map f is idempotent exactly when it fixes every element of its image;
equivalently f restricted to image(f) is the identity.  That characterization
drives the constructive enumeration: pick the image set S, fix S pointwise,
and send the remaining m-|S| elements anywhere into S.  Summing over image
sizes gives the closed-form count sum_k C(m, k) * k^(m-k).
"""

from __future__ import annotations

import itertools
import math

from ._record import Record, integer

__all__ = [
    "FiniteEndofunction", "is_idempotent", "image_fixing_holds", "iterate",
    "enumerate_idempotent", "count_idempotent",
    "ENUMERATION_LIMIT", "COUNT_LIMIT",
]

# Enumeration lists every map, so its cost is the size of its output:
# 6,322 maps (88 KB of text) at m = 7, against 41,393 at m = 8.  The maps
# are built, not filtered out of all m^m tables.  The closed-form count is
# capped where it still fits a signed 64-bit integer of a JSON reader:
# count_idempotent(20) is about 2.7e16, past 2^53, so a reader that parses
# numbers as doubles rounds it.
ENUMERATION_LIMIT = 7
COUNT_LIMIT = 20


class FiniteEndofunction(Record):
    """A self-map of {0, ..., m-1}, stored as its value table."""

    table: tuple[int, ...]

    def __post_init__(self):
        table = tuple(map(integer, itertools.repeat("table value"), self.table))
        m = len(table)
        if m == 0:
            raise ValueError("domain must be non-empty")
        for v in table:
            if not 0 <= v < m:
                raise ValueError(f"value {v} outside domain of size {m}")
        object.__setattr__(self, "table", table)

    @property
    def m(self) -> int:
        return len(self.table)

    def __call__(self, x: int) -> int:
        return self.table[x]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.table)))


def is_idempotent(f: FiniteEndofunction) -> bool:
    """Direct check of f(f(x)) == f(x) for every x."""
    t = f.table
    return all(t[t[x]] == t[x] for x in range(len(t)))


def image_fixing_holds(f: FiniteEndofunction) -> bool:
    """Check the characterization: f is the identity on its image."""
    t = f.table
    return all(t[v] == v for v in set(t))


def iterate(f: FiniteEndofunction, k: int) -> FiniteEndofunction:
    """k-fold composition f o f o ... o f (k >= 1)."""
    k = integer("k", k)
    if k < 1:
        raise ValueError("k must be at least 1")
    cur = f.table
    base = f.table
    for _ in range(k - 1):
        cur = tuple(base[v] for v in cur)
    return FiniteEndofunction(cur)


def enumerate_idempotent(m: int) -> list[FiniteEndofunction]:
    """All idempotent self-maps of {0, ..., m-1} in lexicographic table order,
    built as exactly the maps that fix an image set pointwise."""
    m = integer("m", m)
    if not 1 <= m <= ENUMERATION_LIMIT:
        raise ValueError(f"m must be in 1..{ENUMERATION_LIMIT}")
    tables = []
    elements = range(m)
    for size in range(1, m + 1):
        for image in itertools.combinations(elements, size):
            image_set = set(image)
            rest = [x for x in elements if x not in image_set]
            for choice in itertools.product(image, repeat=len(rest)):
                table = [0] * m
                for v in image:
                    table[v] = v
                for x, v in zip(rest, choice):
                    table[x] = v
                tables.append(tuple(table))
    tables.sort()
    return [FiniteEndofunction(t) for t in tables]


def count_idempotent(m: int) -> int:
    """Closed-form count: sum over image sizes k of C(m, k) * k^(m-k)."""
    m = integer("m", m)
    if not 1 <= m <= COUNT_LIMIT:
        raise ValueError(f"m must be in 1..{COUNT_LIMIT}")
    return sum(math.comb(m, k) * k ** (m - k) for k in range(1, m + 1))
