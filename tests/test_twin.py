"""Twin sets, Fix operators, 2-cogroups, characteristic groups, twinic check."""

import random
from itertools import product

import pytest

from superext.cli import parse_spec
from superext.engine import catalog_specs
from superext.groups import (
    FiniteGroup,
    all_subgroups,
    cogroup_masks,
    group_isomorphic,
    is_normal_mask,
    is_subgroup_mask,
    make_alternating4,
    make_cyclic,
    make_generalized_quaternion,
    InvariantError,
    mask_elements,
    mask_from_elements,
    quotient,
    subtable,
)
from superext import twin
from superext.twin import (
    TwinicResult,
    TwoCogroup,
    characteristic_group,
    characteristic_type,
    cogroup_orbits,
    coset_halves,
    cq_factors,
    fix_minus_table,
    fix_operators,
    is_pretwin,
    is_trivially_twinic,
    is_twin,
    maximal_2cogroups,
    q_counts,
    tag_str,
    twin_sets_for,
)

CATALOG_8 = [s for s in catalog_specs(8)]
CATALOG_16 = [s for s in catalog_specs(16)]
CATALOG_12 = [s for s in catalog_specs(12)]


# -- Fix operators -----------------------------------------------------------------------


def test_fix_operators_c4():
    g = make_cyclic(4)
    fix, fixm, fixpm = fix_operators(g, 0b0011)
    assert fix == 0b0001 and fixm == 0b0100 and fixpm == 0b0101


def test_fix_operators_empty_set():
    g = make_cyclic(4)
    fix, fixm, _ = fix_operators(g, 0)
    assert fix == g.full_mask() and fixm == 0


def test_fix_operators_q8_cyclic_half():
    g = make_generalized_quaternion(8)
    half = 0b00001111  # the order-4 cyclic subgroup <y>
    fix, fixm, _ = fix_operators(g, half)
    assert fix == half and fixm == half ^ g.full_mask()


def test_is_twin_examples():
    g = make_cyclic(4)
    assert is_twin(g, 0b0011)
    assert not is_twin(g, 0b0111)  # wrong cardinality
    assert not is_twin(g, 0b0001)


def test_twin_needs_half_size():
    for spec in ("C4", "C6", "D6"):
        g = parse_spec(spec)
        for a in range(g.full_mask() + 1):
            if 2 * bin(a).count("1") != g.order:
                assert not is_twin(g, a), (spec, a)


def test_pretwin_equals_twin_on_catalog():
    # trivial-twinic consequence, exhaustively on small groups
    for spec in CATALOG_8:
        g = parse_spec(spec)
        for a in range(g.full_mask() + 1):
            assert is_twin(g, a) == is_pretwin(g, a), (spec, a)


def test_pretwin_equals_twin_sampled_large():
    rng = random.Random(1)
    for spec in ("C12", "A4", "C16", "D16", "Q16"):
        g = parse_spec(spec)
        for _ in range(2_000):
            a = rng.randrange(g.full_mask() + 1)
            assert is_twin(g, a) == is_pretwin(g, a)


# -- structure of Fix (subgroup laws) ---------------------------------------------------------


def test_fix_pm_subgroup_and_index_two_exhaustive():
    for spec in CATALOG_8:
        g = parse_spec(spec)
        for a in range(g.full_mask() + 1):
            fix, fixm, fixpm = fix_operators(g, a)
            assert is_subgroup_mask(g, fixpm) or fixpm == fix  # fixpm = fix when not twin
            if fixpm != fix:
                assert is_subgroup_mask(g, fixpm)
            assert is_subgroup_mask(g, fix)
            twin = fixm != 0
            assert twin == (2 * fix.bit_count() == fixpm.bit_count())


def test_fix_pm_subgroup_sampled_16():
    rng = random.Random(2)
    for spec in ("C16", "Q16", "D16", "C2xC2xC4"):
        g = parse_spec(spec)
        for _ in range(10_000):
            a = rng.randrange(g.full_mask() + 1)
            fix, fixm, fixpm = fix_operators(g, a)
            assert is_subgroup_mask(g, fixpm)
            assert (fixm != 0) == (2 * fix.bit_count() == fixpm.bit_count())


def test_fix_minus_conjugation_exhaustive():
    for spec in CATALOG_8:
        g = parse_spec(spec)
        for a in range(g.full_mask() + 1):
            fixm = fix_operators(g, a)[1]
            for x in range(g.order):
                shifted = fix_operators(g, g.shift_mask(x, a))[1]
                expected = 0
                for z in mask_elements(fixm):
                    expected |= 1 << g.conj(x, z)
                assert shifted == expected, (spec, a, x)


# -- 2-cogroups --------------------------------------------------------------------------------


def test_cogroups_c4():
    g = make_cyclic(4)
    masks = {k for k, _, _ in cogroup_masks(g)}
    assert masks == {0b0100, 0b1010}
    assert {k.members for k in maximal_2cogroups(g)} == masks


def test_cogroups_q8():
    g = make_generalized_quaternion(8)
    masks = {k for k, _, _ in cogroup_masks(g)}
    minus_one = 1 << 2  # y^2 is the unique involution
    assert minus_one in masks
    full = g.full_mask()
    # complements of the three cyclic order-4 subgroups
    subs4 = [s for s in all_subgroups(g) if s.bit_count() == 4]
    for s in subs4:
        assert (s ^ full) in masks
    maximal = {k.members for k in maximal_2cogroups(g)}
    assert maximal == {minus_one} | {s ^ full for s in subs4}
    assert len(maximal) == 4


def test_cogroups_odd_group_empty():
    assert cogroup_masks(make_cyclic(5)) == []
    assert maximal_2cogroups(make_cyclic(9)) == []


def test_cogroup_invariants():
    for spec in CATALOG_16:
        g = parse_spec(spec)
        for k, kk, kpm in cogroup_masks(g):
            assert k & kk == 0
            assert k | kk == kpm
            assert is_subgroup_mask(g, kk) and is_subgroup_mask(g, kpm)
            assert 2 * kk.bit_count() == kpm.bit_count()
            for x in mask_elements(k):
                shifted = 0
                for z in mask_elements(k):
                    shifted |= 1 << g.table[x][z]
                assert shifted == kk  # xK = KK
            # KK normal in Stab(K)
            for x in range(g.order):
                if g.conj_mask(x, k) != k:
                    continue
                conj = 0
                for z in mask_elements(kk):
                    conj |= 1 << g.conj(x, z)
                assert conj == kk


def test_maximal_cogroups_a4():
    g = make_alternating4()
    maximal = maximal_2cogroups(g)
    assert len(maximal) == 3
    assert all(k.members.bit_count() == 2 for k in maximal)
    klein = max(s for s in all_subgroups(g) if s.bit_count() == 4 and is_normal_mask(g, s))
    for k in maximal:
        assert k.members & klein == k.members


def test_orbits_abelian_singletons():
    for spec in ("C8", "C2xC4", "C2xC2xC2"):
        g = parse_spec(spec)
        for orbit in cogroup_orbits(g):
            assert len(orbit.members) == 1


def test_orbits_a4_single_orbit_of_three():
    orbits = cogroup_orbits(make_alternating4())
    assert len(orbits) == 1 and len(orbits[0].members) == 3


def test_orbits_d8():
    # conjugation scan: one normal orbit per index-2 subgroup complement
    # (three of those) plus two two-element orbits at the bottom level
    orbits = cogroup_orbits(parse_spec("D8"))
    sizes = sorted(len(o.members) for o in orbits)
    assert sizes == [1, 1, 1, 2, 2]
    assert all(o.characteristic_type == ("C", 1) for o in orbits)


@pytest.mark.parametrize(
    "spec", CATALOG_16 + ["D8xC2xC2", "Q8xQ8", "D16xC2xC2", "Q32", "C2xQ16", "C4xQ8", "Q16xC4"]
)
def test_orbits_stabilisers_and_types_match_the_definitions(spec, relabelled):
    # all n conjugates and a freshly validated Stab(K), not one per coset or g's own table
    for g in (parse_spec(spec), relabelled(parse_spec(spec), random.Random(spec))[0]):
        t, inv, stab_groups = g.table, g.inv, {}
        for orbit in cogroup_orbits(g):
            rep = orbit.representative
            conjugates = [sum(1 << t[t[x][a]][inv[x]] for a in mask_elements(rep.members)) for x in range(g.order)]
            assert [k.members for k in orbit.members] == sorted(set(conjugates))
            assert list(orbit.conjugators) == [conjugates.index(k.members) for k in orbit.members]
            for k in orbit.members:
                ks = set(mask_elements(k.members))
                assert k.stab == sum(1 << x for x in range(g.order) if all(t[t[x][a]][inv[x]] in ks for a in ks))
            stab = sorted(mask_elements(rep.stab))
            kk = sum(1 << i for i, e in enumerate(stab) if rep.kk >> e & 1)
            if rep.stab not in stab_groups:
                stab_groups[rep.stab] = FiniteGroup(subtable(g.mul, stab))
            h = quotient(stab_groups[rep.stab], kk)
            assert h.element_orders.count(2) == 1 and cq_factors(h) == {orbit.characteristic_type: 1}


def test_selector_smallest_masks():
    for spec in CATALOG_16:
        g = parse_spec(spec)
        for orbit in cogroup_orbits(g):
            assert orbit.representative.members == min(k.members for k in orbit.members)


# -- characteristic groups ----------------------------------------------------------------------


def test_characteristic_group_q8_bottom():
    g = make_generalized_quaternion(8)
    k = next(k for k in maximal_2cogroups(g) if k.members.bit_count() == 1)
    h, tag = characteristic_group(k)
    assert tag == ("Q", 3) and group_isomorphic(h, g)


def test_characteristic_group_a4():
    g = make_alternating4()
    for k in maximal_2cogroups(g):
        h, tag = characteristic_group(k)
        assert tag == ("C", 1) and h.order == 2


def test_characteristic_group_c4():
    g = make_cyclic(4)
    k = next(k for k in maximal_2cogroups(g) if k.members == 0b0100)
    h, tag = characteristic_group(k)
    assert k.stab == g.full_mask() and k.kk == 1
    assert tag == ("C", 2) and group_isomorphic(h, g)


def test_classification_catalog_16():
    for spec in CATALOG_16:
        g = parse_spec(spec)
        for k in maximal_2cogroups(g):
            h, tag = characteristic_group(k)
            assert h.order == 1 << tag[1]
            involutions = sum(1 for o in h.element_orders if o == 2)
            assert involutions == 1
            assert tag[0] == "C" or tag[1] >= 3


def test_characteristic_group_size_divides_index():
    for spec in CATALOG_16:
        g = parse_spec(spec)
        for k in maximal_2cogroups(g):
            h, _ = characteristic_group(k)
            index = g.order // k.members.bit_count()
            assert index % h.order == 0
            if k.stab == g.full_mask():  # normal cogroup
                assert h.order == index


def _record(spec, members, kk, stab=None):
    g = parse_spec(spec)
    stab = g.full_mask() if stab is None else stab
    return TwoCogroup(group=g, members=members, kk=kk, kpm=members | kk, stab=stab)


@pytest.mark.parametrize(
    "spec, members, kk, stab, error, match",
    [
        ("C4", 0b0100, 0b0001, 0b0111, InvariantError, "not nested subgroups"),  # Stab(K) misses 1+2
        ("C4", 0b1000, 0b0110, None, InvariantError, "not nested subgroups"),  # KK misses the identity
        ("C4", 0b0100, 0b1111, 0b0101, InvariantError, "not nested subgroups"),  # KK outside Stab(K)
        ("D6", 0b010000, 0b001001, None, InvariantError, "not normal"),  # {r0, r0s}, moved by r1
        # only a later generator moves KK: X's second, 1032, moves <0231>; of Stab(K)'s generators
        # (0,r2), (0,r1s), (1,r1), only the third moves {(0,r0), (0,r1s)}
        ("A4", 0b1000, 0b0111, None, InvariantError, "not normal"),
        ("C2xD8", 0b0100, 0b100001, 0b101101010100101, InvariantError, "not normal"),
        ("C6", 0b000110, 0b001001, None, ValueError, "only 2-groups"),  # |Stab/KK| = 3
        ("C2xC2xC2", 0b0100, 0b0011, None, InvariantError, "unique involution"),  # Stab/KK = C2xC2
    ],
)
def test_characteristic_type_refuses_a_record_that_fails_a_check(spec, members, kk, stab, error, match):
    with pytest.raises(error, match=match):
        characteristic_type(_record(spec, members, kk, stab))


def test_characteristic_group_refuses_a_quotient_with_more_than_one_involution():
    # Stab/KK = C2xC2, the row characteristic_type refuses by its coset orders
    with pytest.raises(InvariantError, match="unique involution"):
        characteristic_group(_record("C2xC2xC2", 0b0100, 0b0011))


def test_characteristic_type_refuses_a_non_cyclic_h_not_certified_quaternion(monkeypatch):
    k = next(o.representative for o in cogroup_orbits(make_generalized_quaternion(8)) if o.characteristic_type[0] == "Q")
    assert characteristic_type(k) == ("Q", 3)
    monkeypatch.setattr(twin, "characteristic_group", lambda _: (None, ("C", 3)))
    with pytest.raises(InvariantError, match="not Q8"):
        characteristic_type(k)


def test_cogroup_orbits_build_no_group_for_a_cyclic_characteristic_group(monkeypatch, relabelled):
    specs = ("C16", "D16", "C2xC2xC2xC2", "C4xC4", "D12", "A4")
    expected = [sorted((len(o.members), o.characteristic_type) for o in cogroup_orbits(parse_spec(s))) for s in specs]
    groups = [relabelled(parse_spec(s), random.Random(s))[0] for s in specs]

    def refuse(*args):
        raise AssertionError("a group was built for a cyclic Stab(K)/KK")

    for name in ("FiniteGroup", "quotient", "characteristic_group"):
        monkeypatch.setattr(twin, name, refuse)
    for g, types in zip(groups, expected):
        assert sorted((len(o.members), o.characteristic_type) for o in cogroup_orbits(g)) == types


@pytest.mark.parametrize("spec, tag", [("Q8", ("Q", 3)), ("Q16", ("Q", 4))])
def test_only_the_quaternion_orbit_builds_its_characteristic_group(monkeypatch, spec, tag):
    calls = []

    def counted(k):
        calls.append(k)
        return characteristic_group(k)

    monkeypatch.setattr(twin, "characteristic_group", counted)
    orbits = cogroup_orbits(parse_spec(spec))
    assert [o.representative for o in orbits if o.characteristic_type == tag] == calls
    assert len(calls) == 1


# -- the twin-set act --------------------------------------------------------------------------


def test_twin_sets_q8_bottom():
    g = make_generalized_quaternion(8)
    k = next(k for k in maximal_2cogroups(g) if k.members.bit_count() == 1)
    tk = twin_sets_for(k)
    assert len(tk.twin_masks) == 16 and tk.orbit_count == 2
    assert all(len(o) == 8 for o in tk.orbits)


def test_twin_sets_a4():
    g = make_alternating4()
    for k in maximal_2cogroups(g):
        tk = twin_sets_for(k)
        assert len(tk.twin_masks) == 8 and tk.orbit_count == 4
        assert all(len(o) == 2 for o in tk.orbits)


def test_twin_sets_free_act_catalog():
    for spec in CATALOG_8:
        g = parse_spec(spec)
        for k in maximal_2cogroups(g):
            tk = twin_sets_for(k)
            h_order = k.stab.bit_count() // k.kk.bit_count()
            assert len(tk.twin_masks) == 1 << k.kpm_index()
            assert all(len(o) == h_order for o in tk.orbits)


def test_twin_sets_rejects_non_maximal():
    # {3} sits inside the odd coset {1, 3, 5}, the one maximal 2-cogroup of C6
    g = make_cyclic(6)
    small = TwoCogroup(group=g, members=0b001000, kk=0b000001, kpm=0b001001, stab=g.full_mask())
    with pytest.raises(InvariantError, match="Fix- table"):
        twin_sets_for(small)


def test_selector_families_pairwise_disjoint():
    for spec in CATALOG_8:
        g = parse_spec(spec)
        families = [frozenset(twin_sets_for(o.representative).twin_masks) for o in cogroup_orbits(g)]
        for i, a in enumerate(families):
            for b in families[i + 1 :]:
                assert a != b and not (a & b)


# -- q-counts ----------------------------------------------------------------------------------


def test_q_counts_c2xc4():
    assert q_counts(parse_spec("C2xC4")) == {("C", 1): 3, ("C", 2): 2}


def test_q_counts_q8():
    assert q_counts(parse_spec("Q8")) == {("C", 1): 3, ("Q", 3): 1}


def test_q_counts_trivial():
    assert q_counts(make_cyclic(1)) == {}
    assert q_counts(make_cyclic(9)) == {}


def test_tag_rendering():
    assert tag_str(("C", 1)) == "C2" and tag_str(("Q", 4)) == "Q16"


# -- realized cogroups --------------------------------------------------------------------------


def test_klein_singletons_unrealized():
    # every 2-cogroup of C2xC2 is Fix- of some twin set except the three singletons
    g = parse_spec("C2xC2")
    realized = set(fix_minus_table(g))
    for k, _, _ in cogroup_masks(g):
        assert (k in realized) == (k.bit_count() != 1)


# -- the Fix- table ------------------------------------------------------------------------------


def test_fix_minus_table_matches_fix_operators():
    for spec in CATALOG_12:
        g = parse_spec(spec)
        assert fix_minus_table(g) == tuple(fix_operators(g, a)[1] for a in range(g.full_mask() + 1)), spec


def test_twin_sets_for_rejects_a_table_that_disagrees(monkeypatch):
    g = make_generalized_quaternion(8)
    k = maximal_2cogroups(g)[0]
    table = list(fix_minus_table(g))
    table[min(twin_sets_for(k).twin_masks)] = 0  # drop one twin set from T_K
    monkeypatch.setattr(twin, "fix_minus_table", lambda _: tuple(table))
    with pytest.raises(InvariantError, match="Fix- table"):
        twin_sets_for(k)


def test_twin_sets_for_refuses_a_count_off_the_index(monkeypatch):
    k = maximal_2cogroups(make_cyclic(4))[0]  # K = {2} and K+- = {0, 2}: |T_K| = 2^2
    monkeypatch.setattr(TwoCogroup, "kpm_index", lambda self: 3)
    with pytest.raises(InvariantError, match=r"\|T_K\| = 4, expected 2\^3"):
        twin_sets_for(k)


def test_twin_sets_for_refuses_an_act_that_is_not_free():
    # KK plus one y in K as Stab(K) on C2xC2: H would have order 3 // 2 = 1, but y
    # sends each twin set to its complement, so every orbit has two members
    from dataclasses import replace

    k = maximal_2cogroups(parse_spec("C2xC2"))[0]
    assert k.kk.bit_count() == 2
    with pytest.raises(InvariantError, match="not free"):
        twin_sets_for(replace(k, stab=k.kk | k.members & -k.members))


# -- twinic check -------------------------------------------------------------------------------


def test_twinic_abelian_and_small():
    for spec in ("C2", "C6", "C2xC4", "C16"):
        res = is_trivially_twinic(parse_spec(spec))
        assert res.trivial and res.witness is None


def test_twinic_nonabelian():
    for spec in ("A4", "Q8", "D8", "Q16", "D16"):
        assert is_trivially_twinic(parse_spec(spec)).trivial


def test_twinic_failure_returns_the_first_pair_in_row_major_order(monkeypatch):
    # no group fails, so an empty closure stands in for one that misses ab
    monkeypatch.setattr(twin, "closure", lambda table, mask: 0)
    assert is_trivially_twinic(parse_spec("D8")) == TwinicResult(False, (0, 0))


@pytest.mark.parametrize("swap", [False, True])
def test_twin_sets_for_rejects_a_table_with_a_set_it_does_not_build(monkeypatch, swap):
    g = make_generalized_quaternion(8)
    k = maximal_2cogroups(g)[0]
    table = list(fix_minus_table(g))
    table[0] = k.members  # the empty set, which the transversal never builds, joins T_K
    if swap:
        table[min(twin_sets_for(k).twin_masks)] = 0  # and a built one leaves, so |T_K| holds
    monkeypatch.setattr(twin, "fix_minus_table", lambda _: tuple(table))
    with pytest.raises(InvariantError, match="Fix- table"):
        twin_sets_for(k)


# -- the selector convention -------------------------------------------------------------------


SELECTOR_SPECS = CATALOG_16 + ["C2xD8", "C2xQ8", "C3xC3", "C2xC6"]


def test_maximal_cogroups_of_the_selector_groups_number_142():
    assert len(SELECTOR_SPECS) == 36
    assert sum(len(maximal_2cogroups(parse_spec(spec))) for spec in SELECTOR_SPECS) == 142


@pytest.mark.parametrize("spec", SELECTOR_SPECS)
def test_coset_halves_build_t_k_and_its_least_member(spec, relabelled):
    # each pair splits the coset K+-*s of its least element s; one half per pair is T_K,
    # and the smaller half of each is T_K's least member, the selector the projection reads
    g = parse_spec(spec)
    for h in (g, relabelled(g, random.Random(spec))[0]):
        fixm = fix_minus_table(h)
        for k in maximal_2cogroups(h):
            pairs = coset_halves(k)
            covered = 0
            for k_half, kk_half in pairs:
                coset = k_half | kk_half
                s = (coset & -coset).bit_length() - 1
                assert kk_half >> s & 1 and not k_half & kk_half and not coset & covered
                assert coset == mask_from_elements(h.table[z][s] for z in mask_elements(k.kpm))
                covered |= coset
            assert covered == h.full_mask()
            twins = twin_sets_for(k).twin_masks
            assert sorted({sum(choice) for choice in product(*pairs)}) == list(twins)
            assert list(twins) == [a for a, f in enumerate(fixm) if f == k.members]
            assert sum(map(min, pairs)) == twins[0]
