"""Idempotents, minimal ideals, Rees decomposition, End(T_K)."""

import random

import pytest

from superext.cli import parse_spec
from superext.engine import build_type_semigroup, catalog_specs, lambda_semigroup
from superext.groups import (
    InvariantError,
    direct_product,
    group_isomorphic,
    make_cyclic,
    make_generalized_quaternion,
    subtable,
)
from superext.semigroups import (
    FiniteSemigroup,
    end_tk,
    end_tk_min_ideal_expected,
    expected_unit_group_size,
    idempotent_image_orbits,
    idempotents,
    left_ideal,
    maximal_subgroup,
    minimal_ideal,
    minimal_left_ideal,
    rees_decompose,
    semigroup_isomorphic,
    validate_associativity,
)
from superext.twin import characteristic_group, maximal_2cogroups


def left_zero_semigroup(k):
    return FiniteSemigroup.from_table([[i] * k for i in range(k)])


def rectangular_band(rows, cols):
    elems = [(i, j) for i in range(rows) for j in range(cols)]
    idx = {e: n for n, e in enumerate(elems)}
    table = [[idx[(a[0], b[1])] for b in elems] for a in elems]
    return FiniteSemigroup.from_table(table, labels=elems)


# -- idempotents -------------------------------------------------------------------------


def test_idempotents_lambda_c2():
    sem = lambda_semigroup(make_cyclic(2))
    idem = idempotents(sem)
    assert len(idem) == 1
    assert sem.labels[idem[0]].contains(0b01)  # the principal ultrafilter at the identity


def test_idempotents_lambda_c3():
    g = make_cyclic(3)
    sem = lambda_semigroup(g)
    idem = idempotents(sem)
    labels = [sem.labels[i] for i in idem]
    kinds = {s.bits for s in labels}
    assert 0b1000 in kinds  # the majority system
    assert any(s.contains(0b001) and s.contains(0b011) and s.contains(0b101) for s in labels)


def test_left_zero_all_idempotent():
    sem = left_zero_semigroup(5)
    assert idempotents(sem) == list(range(5))


def test_idempotents_refuses_a_product_with_none():
    with pytest.raises(InvariantError, match="no idempotent"):
        idempotents(FiniteSemigroup.from_table([[1, 1], [0, 0]]))  # x*y = 1 - x


# -- minimal ideals ------------------------------------------------------------------------


def test_minimal_left_ideal_lambda_c3():
    g = make_cyclic(3)
    sem = lambda_semigroup(g)
    maj = next(i for i in range(sem.size) if sem.labels[i].bits == 0b1000)
    assert minimal_left_ideal(sem) == frozenset({maj})
    assert minimal_ideal(sem) == frozenset({maj})  # so no other minimal left ideal


def test_minimal_left_ideal_lambda_c2_whole():
    sem = lambda_semigroup(make_cyclic(2))
    assert minimal_left_ideal(sem) == frozenset({0, 1})


def test_zero_semigroup_singleton_ideals():
    # x*y = y makes every element a right zero, so every singleton is a
    # minimal left ideal; in the left-zero dual the singletons are the
    # minimal right ideals instead
    right_zero = FiniteSemigroup.from_table([[j for j in range(4)] for _ in range(4)])
    assert len(minimal_left_ideal(right_zero)) == 1
    assert all(left_ideal(right_zero, x) == frozenset({x}) for x in range(4))
    left_zero = left_zero_semigroup(4)
    from superext.semigroups import right_ideal

    assert all(right_ideal(left_zero, x) == frozenset({x}) for x in range(4))


def test_minimal_left_ideal_principality():
    g = make_cyclic(4)
    sem = lambda_semigroup(g)
    ideal = minimal_left_ideal(sem)
    for x in ideal:
        assert left_ideal(sem, x) == ideal


def test_right_shifts_between_minimal_lefts_are_bijections():
    sem = rectangular_band(2, 3)
    ideals = {left_ideal(sem, z) for z in minimal_ideal(sem)}
    assert len(ideals) == 3
    a, b = sorted(ideals, key=min)[:2]
    for pivot in b:
        image = {sem.mul(x, pivot) for x in a}
        assert image == b and len(image) == len(a)


# -- maximal subgroups ------------------------------------------------------------------------


def test_maximal_subgroup_lambda_c4():
    g = make_cyclic(4)
    sem = lambda_semigroup(g)
    ideal = minimal_left_ideal(sem)
    e = min(x for x in ideal if sem.mul(x, x) == x)
    h, _ = maximal_subgroup(sem, e)
    assert group_isomorphic(h, direct_product(make_cyclic(2), make_cyclic(4)))


def test_maximal_subgroup_majority_trivial():
    g = make_cyclic(3)
    sem = lambda_semigroup(g)
    maj = next(i for i in range(sem.size) if sem.labels[i].bits == 0b1000)
    h, _ = maximal_subgroup(sem, maj)
    assert h.order == 1


def test_maximal_subgroup_lambda_klein():
    g = parse_spec("C2xC2")
    sem = lambda_semigroup(g)
    ideal = minimal_left_ideal(sem)
    e = min(x for x in ideal if sem.mul(x, x) == x)
    h, _ = maximal_subgroup(sem, e)
    expected = direct_product(direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2))
    assert group_isomorphic(h, expected)


def test_maximal_subgroup_rejects_non_idempotent():
    sem = lambda_semigroup(make_cyclic(2))
    non_idem = next(i for i in range(sem.size) if sem.mul(i, i) != i)
    with pytest.raises(ValueError):
        maximal_subgroup(sem, non_idem)


# -- Rees decomposition ------------------------------------------------------------------------


def test_rees_on_structural_q8_model():
    model = build_type_semigroup(1, {("Q", 3): 1, ("C", 1): 3})
    ideal = frozenset(range(model.size))
    rees = rees_decompose(model, ideal)
    assert rees.left_zero_count == 2
    expected = make_generalized_quaternion(8)
    for _ in range(3):
        expected = direct_product(expected, make_cyclic(2))
    assert group_isomorphic(rees.group, expected)


def test_rees_on_structural_a4_reference_model():
    # reference-shaped model with a 2^6 left-zero part and three C2 factors
    model = build_type_semigroup(6, {("C", 1): 3})
    rees = rees_decompose(model, frozenset(range(model.size)))
    assert rees.left_zero_count == 64 and rees.group.order == 8
    assert all(o <= 2 for o in rees.group.element_orders)


def test_rees_group_alone():
    sem = FiniteSemigroup.from_table(make_cyclic(6).table)
    rees = rees_decompose(sem, frozenset(range(6)))
    assert rees.left_zero_count == 1 and group_isomorphic(rees.group, make_cyclic(6))


# x*y on {0, 1, 2}: C2 on {0, 1}, and 0 whenever 2 is a factor.  Only 0 is idempotent,
# and H_0 = {0, 1}; an ideal with 2 in it breaks one bookkeeping step of the Rees split.
C2_WITH_A_NILPOTENT = FiniteSemigroup.from_table([[0, 1, 0], [1, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("ideal, match", [
    ({1, 2}, "without idempotents"),
    ({0, 1, 2}, "size bookkeeping"),
    ({0, 2}, "not a bijection"),
])
def test_rees_refuses_a_set_that_is_not_a_minimal_left_ideal(ideal, match):
    with pytest.raises(InvariantError, match=match):
        rees_decompose(C2_WITH_A_NILPOTENT, frozenset(ideal))


def test_rees_refuses_idempotents_that_are_not_left_zeros():
    semilattice = FiniteSemigroup.from_table([[0, 0], [0, 1]])  # x*y = min(x, y)
    with pytest.raises(InvariantError, match="must be left zeros"):
        rees_decompose(semilattice, frozenset({0, 1}))


# -- End(T_K) ----------------------------------------------------------------------------------


def maximal_cogroups_through_8():
    for spec in catalog_specs(8):
        g = parse_spec(spec)
        for k in maximal_2cogroups(g):
            yield spec, k


def test_end_tk_size_formula():
    for spec, k in maximal_cogroups_through_8():
        sem, tk = end_tk(k)
        r = tk.orbit_count
        h = len(tk.twin_masks) // r
        assert sem.size == h**r * r**r, spec


def test_end_tk_q8_direct_count():
    g = make_generalized_quaternion(8)
    k = next(k for k in maximal_2cogroups(g) if k.members.bit_count() == 1)
    sem, tk = end_tk(k)
    assert sem.size == 8**2 * 2**2 == 256
    assert len(tk.twin_masks) ** tk.orbit_count == 256  # independent count


def test_end_tk_minimal_ideal_characterization():
    for spec, k in maximal_cogroups_through_8():
        sem, tk = end_tk(k)
        assert minimal_ideal(sem) == end_tk_min_ideal_expected(sem, tk), spec


def test_end_tk_minimal_left_ideal_structure():
    for spec, k in maximal_cogroups_through_8():
        sem, tk = end_tk(k)
        ideal = minimal_left_ideal(sem)
        rees = rees_decompose(sem, ideal)
        h_char, _ = characteristic_group(k)
        assert rees.left_zero_count == tk.orbit_count, spec
        assert group_isomorphic(rees.group, h_char), spec
        # explicit model: characteristic group x left zeros
        model_elems = [(z, h) for z in range(tk.orbit_count) for h in range(h_char.order)]
        idx = {e: i for i, e in enumerate(model_elems)}
        model = FiniteSemigroup.from_table(
            [
                [idx[(a[0], h_char.table[a[1]][b[1]])] for b in model_elems]
                for a in model_elems
            ]
        )
        assert semigroup_isomorphic(FiniteSemigroup.from_table(subtable(sem.mul, sorted(ideal))), model) is True, spec


def test_end_tk_single_orbit_is_group():
    g = make_cyclic(6)
    k = next(iter(maximal_2cogroups(g)))
    sem, tk = end_tk(k)
    assert tk.orbit_count == 1
    h, _ = characteristic_group(k)
    assert semigroup_isomorphic(sem, FiniteSemigroup.from_table(h.table)) is True


def test_end_tk_unit_groups_are_wreath_sized():
    for spec, k in maximal_cogroups_through_8():
        sem, tk = end_tk(k)
        if len(tk.twin_masks) > 16:
            continue
        for e in idempotents(sem):
            s = idempotent_image_orbits(sem, tk, e)
            h, _ = maximal_subgroup(sem, e)
            assert h.order == expected_unit_group_size(tk, s), (spec, e)


def composite(fi, fj):
    """The reference product of End(T_K): v -> fi(fj(v)), as a tuple."""
    return tuple(fi[v] for v in fj)


@pytest.mark.parametrize("spec", ["C4", "C2xC2", "D8", "Q8"])
def test_end_tk_product_is_the_composition_of_maps(spec):
    for k in maximal_2cogroups(parse_spec(spec)):
        sem, _ = end_tk(k)
        index = {tuple(f): i for i, f in enumerate(sem.labels)}
        assert len(index) == sem.size
        for i, fi in enumerate(sem.labels):
            for j, fj in enumerate(sem.labels):
                assert sem.mul(i, j) == index[composite(fi, fj)], (spec, i, j)


def test_end_tk_product_on_seeded_pairs_of_a4():
    sem, _ = end_tk(maximal_2cogroups(parse_spec("A4"))[0])
    assert sem.size == 4096 and list(sem.labels) == sorted(set(sem.labels))
    index = {tuple(f): i for i, f in enumerate(sem.labels)}
    rng = random.Random(30)
    for i, j in zip(rng.choices(range(sem.size), k=2000), rng.choices(range(sem.size), k=2000)):
        assert sem.mul(i, j) == index[composite(sem.labels[i], sem.labels[j])], (i, j)


def test_end_tk_refuses_a_monoid_over_its_budget(monkeypatch):
    # C4's K = {2}: T_K is one free orbit of 4 twin sets, so |End(T_K)| = 4^1 * 1^1
    from superext import semigroups

    monkeypatch.setattr(semigroups, "_END_TK_MAX", 3)
    with pytest.raises(ValueError, match=r"\|End\(T_K\)\| = 4 exceeds budget 3"):
        end_tk(maximal_2cogroups(make_cyclic(4))[0])


def test_end_tk_refuses_orbits_that_give_equal_maps(monkeypatch):
    # T_K listed as two copies of its one orbit: the second image overwrites the first
    from superext import semigroups
    from superext.twin import TkData, twin_sets_for

    k = maximal_2cogroups(make_cyclic(4))[0]
    tk = twin_sets_for(k)
    monkeypatch.setattr(semigroups, "twin_sets_for", lambda _: TkData(tk.twin_masks, tk.orbits * 2))
    with pytest.raises(InvariantError, match="equal maps"):
        end_tk(k)


# -- semigroup isomorphism ------------------------------------------------------------------------


def test_iso_reflexive():
    sem = lambda_semigroup(make_cyclic(3))
    assert semigroup_isomorphic(sem, sem) is True


def test_iso_distinguishes_groups():
    a = FiniteSemigroup.from_table(direct_product(make_cyclic(2), make_cyclic(4)).table)
    b = FiniteSemigroup.from_table(make_cyclic(8).table)
    assert semigroup_isomorphic(a, b) is False


def test_iso_lambda_c4_ideal():
    g = make_cyclic(4)
    sem = lambda_semigroup(g)
    ideal = minimal_left_ideal(sem)
    model = FiniteSemigroup.from_table(direct_product(make_cyclic(2), make_cyclic(4)).table)
    assert semigroup_isomorphic(FiniteSemigroup.from_table(subtable(sem.mul, sorted(ideal))), model) is True


def test_iso_budget_indeterminate():
    a = FiniteSemigroup.from_table(make_cyclic(16).table)
    b = FiniteSemigroup.from_table(make_cyclic(16).table)
    assert semigroup_isomorphic(a, b, budget=3) is None


def test_iso_left_zero_counts():
    assert semigroup_isomorphic(left_zero_semigroup(3), left_zero_semigroup(3)) is True
    assert semigroup_isomorphic(left_zero_semigroup(3), FiniteSemigroup.from_table(make_cyclic(3).table)) is False


def test_iso_size_mismatch():
    assert semigroup_isomorphic(left_zero_semigroup(2), left_zero_semigroup(3)) is False
    c4, c2 = (FiniteSemigroup.from_table(make_cyclic(n).table) for n in (4, 2))
    assert semigroup_isomorphic(c4, c2) is False


# -- associativity validation ----------------------------------------------------------------------


def test_lambda_associativity_validation():
    validate_associativity(lambda_semigroup(make_cyclic(4)))  # exhaustive at this size
    validate_associativity(lambda_semigroup(make_cyclic(5)), samples=100_000, seed=0)


def test_validation_catches_broken_table():
    broken = FiniteSemigroup.from_table([[0, 1], [0, 0]])
    with pytest.raises(InvariantError):
        validate_associativity(broken)


def test_sampled_validation_makes_four_products_per_triple():
    # 81 elements: past the exhaustive cut-off, so seeded triples are sampled
    calls = []

    def mul(i, j):
        calls.append((i, j))
        return (i + j) % 81

    validate_associativity(FiniteSemigroup(81, mul), samples=500, seed=4)
    assert len(calls) == 4 * 500
    assert len(set(calls)) > 100  # the triples vary


def test_sampled_validation_catches_a_non_associative_product():
    # (xy)z = 4x + 2y + z and x(yz) = 2x + 2y + z: they differ whenever x != 0
    skewed = FiniteSemigroup(81, lambda i, j: (2 * i + j) % 81)
    with pytest.raises(InvariantError, match="associativity fails") as caught:
        validate_associativity(skewed, samples=100, seed=7)
    a, b, c = map(int, str(caught.value).partition("(")[2].rstrip(")").split(","))
    assert a != 0 and skewed.mul(skewed.mul(a, b), c) != skewed.mul(a, skewed.mul(b, c))


# -- the seeded minimal left ideal ------------------------------------------------------------


def assert_minimal_left_ideal(s, ideal):
    """Closed under left multiplication, and as small as the smallest principal
    left ideal: every left ideal contains a minimal one, and all have one size."""
    assert ideal and all(s.mul(x, y) in ideal for x in range(s.size) for y in ideal)
    assert len(ideal) == min(len(left_ideal(s, x)) for x in range(s.size))


def test_seeded_ideal_on_rectangular_band():
    sem = rectangular_band(2, 3)
    ideal = minimal_left_ideal(sem)
    assert_minimal_left_ideal(sem, ideal)
    assert len(ideal) == 2


def test_seeded_ideal_on_permuted_type_model():
    # (left zeros of size 4) x C2 x Q8 under a seeded carrier permutation
    model = build_type_semigroup(2, {("C", 1): 1, ("Q", 3): 1})
    n = model.size
    perm = list(range(n))
    random.Random(3).shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[model.mul(i, j)]
    sem = FiniteSemigroup.from_table(table)
    ideal = minimal_left_ideal(sem)
    assert_minimal_left_ideal(sem, ideal)
    rees = rees_decompose(sem, ideal)
    assert (rees.left_zero_count, rees.group.order) == (4, 16)


@pytest.mark.parametrize("spec", ["C3", "C4", "C2xC2", "C5"])
def test_seeded_ideal_on_lambda(spec):
    sem = lambda_semigroup(parse_spec(spec))
    assert_minimal_left_ideal(sem, minimal_left_ideal(sem))


def test_seeded_ideal_rejects_a_non_associative_table():
    # the product chain lands on 1; L = S*1 = {0, 1} but L*0 = {0}
    sem = FiniteSemigroup.from_table([[0, 1], [0, 0]])
    with pytest.raises(InvariantError):
        minimal_left_ideal(sem)

