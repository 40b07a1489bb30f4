"""Twin subsets, 2-cogroups, characteristic groups, and the twinic check.

All notions here are the plain (trivial-ideal) forms: every finite group
has periodic commutators, so the ideal-decorated variants collapse to the
ones implemented here and no operation takes an ideal parameter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .groups import (
    FiniteGroup,
    InvariantError,
    closure,
    greedy_generators,
    group_isomorphic,
    is_normal_mask,
    is_subgroup_mask,
    make_cq_product,
    mask_elements,
    mask_from_elements,
    maximal_cogroup_masks,
    orbits,
    quotient,
    restrict,
)

Tag = tuple[str, int]  # ("C", k) is C_{2^k}, ("Q", k) is Q_{2^k}


@dataclass(frozen=True)
class TwoCogroup:
    group: FiniteGroup = field(compare=False)
    members: int = 0          # K
    kk: int = 0               # K*K, a subgroup disjoint from K
    kpm: int = 0              # K union K*K
    stab: int = 0             # {x : x K x^-1 = K}

    def kpm_index(self) -> int:
        return self.group.order // self.kpm.bit_count()


@dataclass(frozen=True)
class CogroupOrbit:
    representative: TwoCogroup
    members: tuple[TwoCogroup, ...] = ()
    characteristic_type: Tag = ("C", 1)
    conjugators: tuple[int, ...] = ()  # the least x with x*rep*x^-1 = members[i]


def fix_operators(g: FiniteGroup, a: int) -> tuple[int, int, int]:
    """(Fix, Fix-, Fix+-) of the subset a, by direct scan over all shifts."""
    comp = a ^ g.full_mask()
    fix = fixm = 0
    for x in range(g.order):
        xa = g.shift_mask(x, a)
        if xa == a:
            fix |= 1 << x
        elif xa == comp:
            fixm |= 1 << x
    return fix, fixm, fix | fixm


def fix_minus_table(g: FiniteGroup) -> tuple[int, ...]:
    """Fix-(a) for every mask a, built once per group: bit x of entry a is
    set iff shift row x sends a to its complement."""
    def build():
        full = g.full_mask()
        table = [0] * (full + 1)
        for x in range(1, g.order):  # the identity fixes every mask
            for a, xa in enumerate(g.shift_row(x)):
                if a ^ xa == full:
                    table[a] |= 1 << x
        return tuple(table)

    return g.memo("fix_minus", build)


def is_twin(g: FiniteGroup, a: int) -> bool:
    return fix_operators(g, a)[1] != 0


def is_pretwin(g: FiniteGroup, a: int) -> bool:
    """Some shift of a inside the complement and some shift covering it."""
    comp = a ^ g.full_mask()
    below = above = False
    for x in range(g.order):
        xa = g.shift_mask(x, a)
        below = below or (xa & comp) == xa
        above = above or (comp & xa) == comp
        if below and above:
            return True
    return False


# -- 2-cogroups ------------------------------------------------------------------


def cogroup_orbits(g: FiniteGroup) -> list[CogroupOrbit]:
    """Conjugation orbits of the maximal 2-cogroups, smallest mask first, in one
    walk each: from the least K not yet placed, images[x] = x*K*x^-1 for every x
    gives Stab(K) = {x : images[x] = K} and the orbit.  Each member K' is
    reached by the least x with images[x] = K', its transport element in
    conjugators, and gets Stab(K') = x*Stab(K)*x^-1."""
    def build():
        triples = {t[0]: t for t in maximal_cogroup_masks(g)}  # placed members are popped
        out = []
        while triples:
            k = min(triples)
            images = g.conj_images(k)
            stab = mask_from_elements(x for x, c in enumerate(images) if c == k)
            least = sorted((c, images.index(c)) for c in set(images))
            members = tuple(TwoCogroup(g, *triples.pop(c), g.conj_mask(x, stab)) for c, x in least)
            tag = characteristic_type(members[0])
            out.append(CogroupOrbit(members[0], members, tag, tuple(x for _, x in least)))
        return out

    return g.memo("cogroup_orbits", build)


def maximal_2cogroups(g: FiniteGroup) -> list[TwoCogroup]:
    """The members of every conjugation orbit, by mask: read off cogroup_orbits."""
    return sorted((k for orbit in cogroup_orbits(g) for k in orbit.members), key=lambda k: k.members)


# -- characteristic groups ----------------------------------------------------------


def cyclic_factors(orders) -> dict[Tag, int]:
    """The C_{2^k} factors of the abelian 2-group with these element orders.

    In the sum of the C_{2^e_i}, the x with x^{2^k} = 1 are the sum of the C_{2^min(k, e_i)},
    so r_k = log2 #{x : x^{2^k} = 1} = sum_i min(k, e_i): r_k - r_{k-1} factors have e_i >= k,
    and r_k - r_{k-1} - (r_{k+1} - r_k) have e_i = k.  Orders of a group that is not abelian
    read as counts of no group, maybe negative ones.
    """
    r = [sum(2**k % o == 0 for o in orders).bit_length() - 1 for k in range(max(orders).bit_length() + 1)]
    return {("C", k): c for k in range(1, len(r) - 1) if (c := 2 * r[k] - r[k - 1] - r[k + 1])}


def cq_factors(h: FiniteGroup) -> dict[Tag, int]:
    """The C_{2^k} and Q_{2^k} factors of a 2-group, read off element orders.

    An abelian group is named by its cyclic factors.  Otherwise each Q_{2^k} adds one
    C_{2^(k-2)} to the derived subgroup and one C2 to the centre, and each C factor adds
    itself to the centre.  In a C/Q product both are abelian, and by Krull-Schmidt their
    reading is the only candidate, so one isomorphism search against its model decides.
    Any other group fails the count test, the order test or that search.
    """
    n = h.order
    if n & (n - 1):
        raise ValueError("only 2-groups decompose into C/Q factors")
    if h.is_abelian:
        return cyclic_factors(h.element_orders)
    derived = [h.element_orders[x] for x in mask_elements(h.derived_subgroup_mask())]
    centre = [h.element_orders[x] for x in mask_elements(h.center_mask())]
    tags = Counter({("Q", k + 2): c for (_, k), c in cyclic_factors(derived).items()})
    tags[("C", 1)] -= sum(tags.values())
    tags.update(cyclic_factors(centre))
    # the order test keeps a non-C/Q group from building an oversized model
    if min(tags.values()) >= 0 and sum(k * c for (_, k), c in tags.items()) == n.bit_length() - 1:
        if group_isomorphic(h, make_cq_product(tags)):
            return dict(+tags)  # without a zero C2 count
    raise InvariantError("no cyclic/quaternion factorization found")


def characteristic_group(k: TwoCogroup) -> tuple[FiniteGroup, Tag]:
    """Stab(K)/KK with its cyclic-or-quaternion classification tag.  Stab(K) = X
    is g itself, validated when g was built; a proper Stab(K) is validated here.
    InvariantError unless Stab(K)/KK has a unique involution; cq_factors raises
    ValueError for an order that is not a power of two."""
    g, kk = k.group, k.kk
    if k.stab != g.full_mask():  # KK renumbered by position in Stab(K)
        elems = list(mask_elements(k.stab))
        g, kk = FiniteGroup(restrict(g.table, elems)), mask_from_elements(map(elems.index, mask_elements(kk)))
    h = quotient(g, kk)
    if h.order > 1 and h.element_orders.count(2) != 1:
        raise InvariantError("group does not have a unique involution")
    return h, next(iter(cq_factors(h)), ("C", 0))  # the trivial group is C1


def characteristic_type(k: TwoCogroup) -> Tag:
    """The tag of H = Stab(K)/KK read in X, where x*KK has order the least j with x^j in KK.  H is
    a 2-group with one involution, so cyclic or generalized quaternion (Burnside): a coset of order
    |H| proves it cyclic; only a non-cyclic H is built, and characteristic_group must certify ("Q", e).
    Checks: Stab(K) and KK are product-closed and hold 1 (subgroups of a validated group), KK lies in
    Stab(K), normal there, |H| is a power of two (ValueError), exactly |KK| elements have coset order 2.
    Normality is tested at Stab(K)'s generators: the x with x*KK*x^-1 = KK form a subgroup."""
    g, stab, kk = k.group, k.stab, k.kk
    if not ((stab == g.full_mask() or is_subgroup_mask(g, stab)) and is_subgroup_mask(g, kk)) or kk & ~stab:
        raise InvariantError("Stab(K) and KK are not nested subgroups")
    gens = g.generators if stab == g.full_mask() else greedy_generators(g.table, mask_elements(stab & ~1))
    if not is_normal_mask(g, kk, gens):
        raise InvariantError("KK is not normal in Stab(K)")
    n = stab.bit_count() // kk.bit_count()
    if n & (n - 1):
        raise ValueError("only 2-groups decompose into C/Q factors")
    def coset_order(x, j=1):  # 2^i in a 2-group, for the least i with x^(2^i) in KK
        return j if kk >> x & 1 else coset_order(g.table[x][x], 2 * j)
    orders = [coset_order(x) for x in mask_elements(stab)]
    if n > 1 and orders.count(2) != kk.bit_count():
        raise InvariantError("group does not have a unique involution")
    cyclic, e = n in orders, n.bit_length() - 1
    if not cyclic and characteristic_group(k)[1] != ("Q", e):
        raise InvariantError(f"a non-cyclic Stab(K)/KK of order {n} is not Q{n}")
    return ("C" if cyclic else "Q", e)


def tag_str(tag: Tag) -> str:
    return f"{tag[0]}{2 ** tag[1]}"


# -- the twin sets attached to a maximal 2-cogroup --------------------------------------


@dataclass(frozen=True)
class TkData:
    """T_K with its free characteristic-group act structure."""

    twin_masks: tuple[int, ...] = ()
    orbits: tuple[tuple[int, ...], ...] = ()

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def coset_halves(k: TwoCogroup) -> list[tuple[int, int]]:
    """(K*s, KK*s) for the least s of each right coset K+-*s.  A set a with K inside
    Fix-(a) has KK*a = a and K*a = X\\a, so it holds exactly one half of each pair;
    the cosets are disjoint, so the least such a takes the smaller half of each."""
    g = k.group
    cosets = orbits(range(g.order), lambda x: (g.table[h][x] for h in mask_elements(k.kpm)))
    return [tuple(mask_from_elements(g.table[z][c[0]] for z in mask_elements(half)) for half in (k.members, k.kk))
            for c in cosets]


def twin_sets_for(k: TwoCogroup) -> TkData:
    """All twin sets with Fix- exactly K, plus their orbit decomposition.

    Built as every choice of one half per pair of coset_halves.  The Fix- table check
    rejects a K that is not maximal, as the nonempty T_K' of a maximal K' above K is built too.
    """
    g = k.group
    built = {sum(choice) for choice in product(*coset_halves(k))}
    # built equals the table's scan iff every set in it, and no other, has Fix- = K
    fixm = fix_minus_table(g)
    if any(fixm[a] != k.members for a in built) or fixm.count(k.members) != len(built):
        raise InvariantError("coset-half construction disagrees with the Fix- table")
    twins = tuple(sorted(built))
    if len(twins) != 1 << k.kpm_index():
        raise InvariantError(f"|T_K| = {len(twins)}, expected 2^{k.kpm_index()}")

    stab_elems = list(mask_elements(k.stab))
    twin_orbits = tuple(map(tuple, orbits(twins, lambda a: (g.shift_mask(x, a) for x in stab_elems))))
    h_order = k.stab.bit_count() // k.kk.bit_count()
    if any(len(o) != h_order for o in twin_orbits):
        raise InvariantError("the characteristic-group act is not free")
    return TkData(twin_masks=twins, orbits=twin_orbits)


def q_counts(g: FiniteGroup) -> dict[Tag, int]:
    """Conjugation-orbit counts of maximal 2-cogroups keyed by characteristic type."""
    return dict(Counter(orbit.characteristic_type for orbit in cogroup_orbits(g)))


# -- the twinic-triviality check -------------------------------------------------------


@dataclass(frozen=True)
class TwinicResult:
    trivial: bool
    witness: tuple[int, int] | None = None


def is_trivially_twinic(g: FiniteGroup) -> TwinicResult:
    """Whether every product ab lies in the subsemigroup generated by b+- a+-.

    In a finite group the subsemigroup a set generates is the subgroup it
    generates (each element's powers reach its inverse and the identity),
    so one subgroup closure decides each pair.  On failure the first
    witness pair (a, b) in row-major order would be returned, but in a group
    none fails: b^-1 a^-1 = (ab)^-1 is a generator, and a subgroup holds the
    inverse of each of its elements, so ab always lies in the closure.
    """
    t, inv = g.table, g.inv
    for a in range(g.order):
        for b in range(g.order):
            gens = mask_from_elements(t[y][x] for y in (b, inv[b]) for x in (a, inv[a]))
            if not closure(t, gens) >> t[a][b] & 1:
                return TwinicResult(False, (a, b))
    return TwinicResult(True, None)
