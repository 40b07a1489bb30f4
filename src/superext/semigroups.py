"""Generic finite-semigroup machinery: idempotents, minimal ideals, Rees
decomposition, and endomorphism monoids of twin-set acts."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import product as iter_product
from math import factorial

from .groups import (
    FiniteGroup,
    InvariantError,
    SearchBudgetExceeded,
    associativity_witness,
    find_isomorphism,
    greedy_generators,
    mask_elements,
    subtable,
    translate_product,
)
from .twin import TkData, TwoCogroup, twin_sets_for

_EXHAUSTIVE_ASSOC_MAX = 64
_END_TK_MAX = 4096


class FiniteSemigroup:
    """Carrier 0..size-1 with the product mul(i, j), computed on demand."""

    def __init__(self, size: int, mul, labels=None):
        self.size = size
        self.mul = mul
        self.labels = labels

    @classmethod
    def from_table(cls, table, labels=None):
        return cls(len(table), lambda i, j: table[i][j], labels=labels)


def validate_associativity(s: FiniteSemigroup, samples: int = 100_000, seed: int = 0) -> None:
    """Exhaustive for small carriers, seeded random triples otherwise: all
    3*samples indices come from one rng.choices call."""
    n = s.size
    if n <= _EXHAUSTIVE_ASSOC_MAX:
        witness = associativity_witness(subtable(s.mul, range(n)))
    else:
        draws = iter(random.Random(seed).choices(range(n), k=3 * samples))
        triples = zip(draws, draws, draws)
        fails = ((a, b, c) for a, b, c in triples if s.mul(s.mul(a, b), c) != s.mul(a, s.mul(b, c)))
        witness = next(fails, None)
    if witness is not None:
        raise InvariantError("associativity fails at ({},{},{})".format(*witness))


# -- ideals -----------------------------------------------------------------------


def idempotents(s: FiniteSemigroup) -> list[int]:
    out = [i for i in range(s.size) if s.mul(i, i) == i]
    if not out:
        raise InvariantError("finite semigroup with no idempotent: broken multiplication")
    return out


def left_ideal(s: FiniteSemigroup, x: int) -> frozenset[int]:
    return frozenset(s.mul(i, x) for i in range(s.size))


def right_ideal(s: FiniteSemigroup, x: int) -> frozenset[int]:
    return frozenset(s.mul(x, i) for i in range(s.size))


def minimal_left_ideal(s: FiniteSemigroup) -> frozenset[int]:
    """S*z for z the product of every element, proved minimal.

    z lies in K(S): K(S) is not empty, so one factor of the product lies in
    it, and K(S) is a two-sided ideal, so the whole product does too.  The
    proof reads L = S*z alone: L*y = L for every y in L.  Then any left
    ideal J inside L holds some y, and J contains S*y, which contains L*y = L.
    """
    z = reduce(s.mul, range(s.size))
    ideal = left_ideal(s, z)
    for y in ideal:
        if {s.mul(x, y) for x in ideal} != ideal:
            raise InvariantError(f"L*{y} differs from L = S*{z}: not a minimal left ideal")
    return ideal


def minimal_ideal(s: FiniteSemigroup) -> frozenset[int]:
    """K(S) = S*x*S for any x in a minimal left ideal."""
    x = min(minimal_left_ideal(s))
    out = set()
    for y in right_ideal(s, x):
        out.update(left_ideal(s, y))
    return frozenset(out)


# -- maximal subgroups and the Rees decomposition ------------------------------------


def maximal_subgroup(s: FiniteSemigroup, e: int) -> tuple[FiniteGroup, list[int]]:
    """H_e, the largest subgroup of s with identity e.

    For a minimal idempotent this is e*S*e; in general it is the unit
    group of the local monoid e*S*e.
    """
    if s.mul(e, e) != e:
        raise ValueError("maximal_subgroup requires an idempotent")
    local = sorted({s.mul(s.mul(e, x), e) for x in range(s.size)})
    units = []
    for gx in local:
        for hx in local:
            if s.mul(gx, hx) == e and s.mul(hx, gx) == e:
                units.append(gx)
                break
    order = [e] + [u for u in units if u != e]  # identity renumbered to 0
    return FiniteGroup(subtable(s.mul, order)), order


@dataclass(frozen=True)
class ReesDecomposition:
    left_zero_count: int
    group: FiniteGroup = field(compare=False)


def rees_decompose(s: FiniteSemigroup, ideal: frozenset[int]) -> ReesDecomposition:
    """Split a minimal left ideal as (left zeros) x (maximal subgroup).
    `ideal` must be one, as minimal_left_ideal proves: it is not checked here."""
    idems = sorted(x for x in ideal if s.mul(x, x) == x)
    if not idems:
        raise InvariantError("minimal left ideal without idempotents: broken multiplication")
    for a in idems:
        for b in idems:
            if s.mul(a, b) != a:
                raise InvariantError("idempotents of a minimal left ideal must be left zeros")
    hgroup, helems = maximal_subgroup(s, idems[0])
    if len(idems) * len(helems) != len(ideal):
        raise InvariantError("Rees size bookkeeping failed")
    # with the sizes equal, z*h covering the ideal makes (z, h) -> z*h a bijection
    if {s.mul(z, h) for z in idems for h in helems} != ideal:
        raise InvariantError("the Rees products z*h are not a bijection onto the ideal")
    return ReesDecomposition(left_zero_count=len(idems), group=hgroup)


# -- endomorphism monoid of the twin-set act -------------------------------------------


def end_tk(k: TwoCogroup) -> tuple[FiniteSemigroup, TkData]:
    """All equivariant self-maps of T_K, one per assignment of orbit images, sorted, each
    as bytes over the twin indices: twin_sets_for stops at order 16, so |T_K| <= 2^8."""
    tk = twin_sets_for(k)
    g = k.group
    twins = tk.twin_masks
    tid = {m: i for i, m in enumerate(twins)}
    r = tk.orbit_count
    h_order = len(twins) // r
    total = (h_order**r) * (r**r)
    if total > _END_TK_MAX:
        raise ValueError(f"|End(T_K)| = {total} exceeds budget {_END_TK_MAX}")

    stab_elems = list(mask_elements(k.stab))
    reps = [orb[0] for orb in tk.orbits]
    maps = []
    for images in iter_product(range(len(twins)), repeat=r):
        f = bytearray(len(twins))
        for oi, rep in enumerate(reps):
            img = twins[images[oi]]
            for x in stab_elems:
                f[tid[g.shift_mask(x, rep)]] = tid[g.shift_mask(x, img)]
        maps.append(bytes(f))
    maps.sort()
    return FiniteSemigroup(len(maps), translate_product(maps, maps), labels=maps), tk


def end_tk_min_ideal_expected(sem: FiniteSemigroup, tk: TkData) -> frozenset[int]:
    """{f : image of f lies in a single orbit}, straight from the definition."""
    return frozenset(i for i in range(sem.size) if idempotent_image_orbits(sem, tk, i) == 1)


def idempotent_image_orbits(sem: FiniteSemigroup, tk: TkData, i: int) -> int:
    orbit_index = {a: j for j, orb in enumerate(tk.orbits) for a in orb}
    return len({orbit_index[tk.twin_masks[v]] for v in sem.labels[i]})


def expected_unit_group_size(tk: TkData, image_orbits: int) -> int:
    h_order = len(tk.twin_masks) // tk.orbit_count
    return (h_order**image_orbits) * factorial(image_orbits)


# -- isomorphism testing -----------------------------------------------------------------


def _cyclic_profile(s: FiniteSemigroup, x: int) -> tuple[int, int]:
    """(index, period) of the cyclic subsemigroup generated by x."""
    seen = {}
    cur = x
    k = 1
    while cur not in seen:
        seen[cur] = k
        cur = s.mul(cur, x)
        k += 1
    first = seen[cur]
    return first, k - first


def _element_invariants(s: FiniteSemigroup) -> list[tuple]:
    return [(s.mul(x, x) == x, _cyclic_profile(s, x)) for x in range(s.size)]


def semigroup_isomorphic(
    s1: FiniteSemigroup, s2: FiniteSemigroup, budget: int = 2_000_000
) -> bool | None:
    """True/False when decided; None when the search budget ran out.

    find_isomorphism over generator images keyed by element invariants.
    """
    t1, t2 = (subtable(s.mul, range(s.size)) for s in (s1, s2))
    gens = greedy_generators(t1, range(s1.size))
    keys1, keys2 = (_element_invariants(s) for s in (s1, s2))
    try:
        return find_isomorphism(t1, t2, gens, keys1, keys2, budget) is not None
    except SearchBudgetExceeded:
        return None
