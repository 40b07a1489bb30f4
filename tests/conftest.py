"""Fixtures shared by the test modules."""

import pytest

from superext.groups import from_cayley_document
from superext.setfam import FamilyOfSets, enumerate_mls, family_to_signature


def _relabelled(g, rng):
    """(h, to_g): g with every element renamed at random, the identity
    included, loaded through from_cayley_document as the benchmark loads its
    inputs, and the map from h's elements back to g's."""
    n = g.order
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(g.table):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    h = from_cayley_document({"order": n, "table": out})
    back = {p: x for x, p in enumerate(perm)}
    return h, [back[old] for old in h.renumbering]


@pytest.fixture
def relabelled():
    """relabelled(g, rng) -> (h, to_g), a random renaming of g's elements."""
    return _relabelled


def _spec_invariant_factors(spec):
    """The invariant factors of an abelian catalog spec, typed from its name:
    C2xC4 -> (2, 4), C6 -> (6,), C1 -> ()."""
    return tuple(n for n in (int(part[1:]) for part in spec.split("x")) if n > 1)


@pytest.fixture
def spec_invariant_factors():
    """spec_invariant_factors(spec) -> the invariant factors its name lists."""
    return _spec_invariant_factors


def _random_mls(g, rng):
    """A seeded maximal linked system: every mask, in random order, joins if it
    meets every member so far.  A mask turned away stays disjoint from a member,
    so the family is maximal; family_to_signature checks it again."""
    masks = list(range(1, g.full_mask() + 1))
    rng.shuffle(masks)
    members: list[int] = []
    for a in masks:
        if all(a & b for b in members):
            members.append(a)
    return family_to_signature(FamilyOfSets(g, frozenset(members)))


@pytest.fixture
def random_mls():
    """random_mls(g, rng) -> a seeded maximal linked system of g."""
    return _random_mls


def _expected_stream(g):
    """The text of g's system stream, from its definition rather than the writer's code:
    the header n=<n> pairs=<2^(n-1)>, then one line per system in enumerate_mls order, its
    signature in lowercase hex, zero-padded to ceil(2^(n-1)/4) digits."""
    pairs = 2 ** (g.order - 1)
    lines = [f"n={g.order} pairs={pairs}"] + [format(s.bits, "x").zfill(-(-pairs // 4)) for s in enumerate_mls(g)]
    return "".join(line + "\n" for line in lines)


@pytest.fixture
def expected_stream():
    """expected_stream(g) -> the exact text that mls-count --out writes for g."""
    return _expected_stream
