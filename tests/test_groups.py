"""Group constructors, subgroup machinery, hom counts, odd subgroup."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from superext import groups
from superext.groups import (
    FgAbelianPresentation,
    FiniteGroup,
    GroupValidationError,
    INFINITY,
    InvariantError,
    SpecError,
    all_subgroups,
    associativity_witness,
    closure,
    cogroup_masks,
    direct_product,
    fg_abelian_q,
    find_isomorphism,
    from_cayley_document,
    from_cayley_file,
    greedy_generators,
    group_isomorphic,
    hom_count_to_cyclic2,
    is_normal_mask,
    is_subgroup_mask,
    make_alternating4,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    mask_elements,
    mask_from_elements,
    maximal_cogroup_masks,
    odd_subgroup,
    quotient,
    subgroup_closure,
    subtable,
    to_cayley_document,
)
from superext.cli import parse_spec
from superext.engine import build_type_semigroup, catalog_specs, lambda_semigroup
from superext.twin import fix_operators


def order_census(g):
    hist = {}
    for x in range(g.order):
        o = g.element_order(x)
        hist[o] = hist.get(o, 0) + 1
    return hist


# -- constructors ----------------------------------------------------------------


def test_cyclic_trivial():
    g = make_cyclic(1)
    assert g.order == 1 and g.table == ((0,),)


def test_cyclic_four_row():
    assert make_cyclic(4).table[1] == (1, 2, 3, 0)


def test_cyclic_eight_orders():
    g = make_cyclic(8)
    assert all(8 % o == 0 for o in g.element_orders)
    assert g.element_order(1) == 8


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_dihedral_eight_census():
    # element-order census computed straight off the constructed table
    assert order_census(make_dihedral(8)) == {1: 1, 2: 5, 4: 2}


def test_dihedral_degenerate():
    assert group_isomorphic(make_dihedral(2), make_cyclic(2))


def test_dihedral_four_is_klein():
    g = make_dihedral(4)
    assert g.is_abelian and order_census(g) == {1: 1, 2: 3}


def test_dihedral_rejects_odd():
    with pytest.raises(ValueError):
        make_dihedral(7)
    with pytest.raises(ValueError):
        make_dihedral(0)


def test_quaternion_eight_census():
    assert order_census(make_generalized_quaternion(8)) == {1: 1, 2: 1, 4: 6}


def test_quaternion_sixteen():
    g = make_generalized_quaternion(16)
    assert g.element_order(1) == 8  # the cyclic half
    cyclic_half = set(range(8))
    assert all(g.element_order(x) == 4 for x in range(8, 16))
    assert subgroup_closure(g, 1 << 1) == 0xFF and cyclic_half == set(range(8))


def test_quaternion_center():
    g = make_generalized_quaternion(8)
    assert g.center_mask().bit_count() == 2


def test_quaternion_rejects_other_sizes():
    for bad in (4, 12, 128):
        with pytest.raises(ValueError):
            make_generalized_quaternion(bad)


def test_alternating4_census():
    g = make_alternating4()
    assert g.order == 12
    census = order_census(g)
    assert census[2] == 3 and census[3] == 8


def test_alternating4_subgroups():
    g = make_alternating4()
    sizes = [s.bit_count() for s in all_subgroups(g)]
    assert 6 not in sizes
    assert any(s.bit_count() == 4 and is_normal_mask(g, s) for s in all_subgroups(g))


def test_direct_product_klein():
    g = direct_product(make_cyclic(2), make_cyclic(2))
    assert g.is_abelian and all(o <= 2 for o in g.element_orders)


def test_direct_product_census():
    g = direct_product(make_cyclic(2), make_cyclic(4))
    assert order_census(g) == {1: 1, 2: 3, 4: 4}


def test_direct_product_identity():
    g = direct_product(make_cyclic(1), make_dihedral(6))
    assert group_isomorphic(g, make_dihedral(6))


def test_spec_grammar_caps_products():
    # the grammar refuses a product above order 64 at the overflowing factor; direct_product has no cap
    with pytest.raises(SpecError) as exc:
        parse_spec("C4xD8xC4")
    assert str(exc.value) == "product order 128 exceeds cap 64 while building 'C4xD8xC4'"
    assert exc.value.position == 6
    assert direct_product(make_cyclic(16), make_cyclic(8)).order == 128


def test_finite_group_repr_names_its_order():
    assert repr(make_cyclic(4)) == "FiniteGroup(order=4)"


def test_lattice_and_hom_count_refuse_an_order_above_the_cap():
    # direct_product has no cap, so C8 x C16 (order 128) reaches the checks of its consumers
    g = direct_product(make_cyclic(8), make_cyclic(16))
    with pytest.raises(ValueError, match="order 128 exceeds cap 64"):
        all_subgroups(g)
    with pytest.raises(ValueError, match="order 128 exceeds cap 64"):
        hom_count_to_cyclic2(g, 1)


# -- Cayley documents ------------------------------------------------------------------

NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_document_c2():
    g = from_cayley_document({"order": 2, "table": [[0, 1], [1, 0]]})
    assert group_isomorphic(g, make_cyclic(2))


def test_document_nonassociative_names_triple():
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_document({"order": 5, "table": NONASSOCIATIVE_LOOP})
    assert exc.value.kind == "associativity"
    i, j, k = exc.value.witness
    t = NONASSOCIATIVE_LOOP
    assert t[t[i][j]][k] != t[i][t[j][k]]
    # the first failing triple in row-major order
    first = next((i, j, k) for i in range(5) for j in range(5) for k in range(5) if t[t[i][j]][k] != t[i][t[j][k]])
    assert exc.value.witness == first == (1, 1, 2)


def _relabel_table(t, rng):
    n = len(t)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(t):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    return out


def _intercalate_loops(rng, count):
    """Loops of order 6 and 8: the table of C6, C8 or D8 with one intercalate
    t[i][k] = t[j][l], t[i][l] = t[j][k] swapped for i, j, k, l other than the
    identity 0 (rows and columns stay permutations, 0 stays the identity),
    then relabelled at random, the identity included."""
    loops = []
    for _ in range(count):
        t = [list(row) for row in rng.choice((make_cyclic(6), make_cyclic(8), make_dihedral(8))).table]
        pairs = list(combinations(range(1, len(t)), 2))
        squares = [(i, j, k, l) for i, j in pairs for k, l in pairs if t[i][k] == t[j][l] and t[i][l] == t[j][k]]
        i, j, k, l = rng.choice(squares)
        t[i][k], t[i][l], t[j][k], t[j][l] = t[i][l], t[i][k], t[j][l], t[j][k]
        loops.append(_relabel_table(t, rng))
    return loops


def test_light_test_refuses_what_the_full_scan_refuses_with_its_witness():
    # Light's test checks associativity at a generating set only; every one of these loops is
    # non-associative, and each must be refused with the full scan's lexicographically first triple
    rng = random.Random(31)
    loops = [_relabel_table(NONASSOCIATIVE_LOOP, rng) for _ in range(10)] + _intercalate_loops(rng, 60)
    for t in [NONASSOCIATIVE_LOOP] + loops:
        first = next(
            ((i, j, k) for i in range(len(t)) for j in range(len(t)) for k in range(len(t))
             if t[t[i][j]][k] != t[i][t[j][k]]),
            None,
        )
        assert first is not None and associativity_witness(t) == first
        with pytest.raises(GroupValidationError) as exc:
            from_cayley_document({"order": len(t), "table": t})
        assert exc.value.kind == "associativity" and exc.value.witness == first


def test_every_relabelled_catalog_group_validates_with_its_generators(relabelled):
    rng = random.Random(7)
    for spec in catalog_specs(16):
        h, _ = relabelled(parse_spec(spec), rng)
        assert 0 not in h.generators and closure(h.table, mask_from_elements(h.generators)) | 1 == h.full_mask()


def _closure_greedy_generators(table, order):
    """The definition greedy_generators keeps: take each element the closure of the taken ones misses."""
    gens, closed = [], 0
    for x in order:
        if not closed >> x & 1:
            gens.append(x)
            closed = closure(table, mask_from_elements(gens))
    return gens


@pytest.mark.parametrize("spec", catalog_specs(16) + ["C2xC2xC2xC2xC2xC2", "Q8xQ8", "D16xC2xC2"])
def test_greedy_generators_extend_the_closure_as_the_definition_takes_them(spec):
    # raw relabelled tables keep the identity anywhere, as FiniteGroup's validation sees them;
    # the orders are validation's (all but the identity), the isomorphism search's and a shuffle
    rng = random.Random(spec)
    t = _relabel_table(parse_spec(spec).table, rng)
    n, e = len(t), t[0].index(0)
    powers = [[x] for x in range(n)]
    for p in powers:
        while p[-1] != e:
            p.append(t[p[-1]][p[0]])
    by_order = sorted(range(n), key=lambda x: (-len(powers[x]), x))
    orders = [[x for x in range(n) if x != e], by_order, rng.sample(range(n), n)]
    for order in orders:
        assert greedy_generators(t, order) == _closure_greedy_generators(t, order)


def test_a_valid_table_skips_the_full_associativity_scan(monkeypatch):
    # the n^3 scan runs only to name the witness of a table Light's test refuses
    def refuse(table):
        raise AssertionError("full scan on a valid table")

    monkeypatch.setattr(groups, "associativity_witness", refuse)
    for spec in ("D16", "Q16", "C2xC2xC2xC2", "A4"):
        FiniteGroup(parse_spec(spec).table)


def test_document_latin_square_error():
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_document({"order": 2, "table": [[0, 0], [1, 1]]})
    assert exc.value.kind == "latin_square"


def test_document_missing_identity():
    # latin square where no element is a two-sided identity
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_document({"order": 3, "table": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]})
    assert exc.value.kind == "identity"


def test_document_renumbers_identity():
    # C3 with the identity sitting at index 1
    table = [[1, 0, 2], [0, 1, 2], [2, 2, 2]]
    # fix up to a real shifted C3 table: elements (a, e, a^2)
    table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    g = from_cayley_document({"order": 3, "table": table})
    assert g.table[0] == (0, 1, 2) and g.renumbering == (1, 0, 2)  # index 0 is the identity
    assert group_isomorphic(g, make_cyclic(3))


def test_finite_group_moves_its_identity_to_index_0():
    # D8 renamed so that its identity sits at index 3
    g = make_dihedral(8)
    perm = [3, 7, 0, 5, 1, 6, 2, 4]
    t = [[0] * 8 for _ in range(8)]
    for a, row in enumerate(g.table):
        for b, v in enumerate(row):
            t[perm[a]][perm[b]] = perm[v]
    names = [g.names[perm.index(x)] for x in range(8)]
    h = FiniteGroup(t, names=names)
    old = h.renumbering  # renumbering[new] = old
    assert old[0] == 3 and old[3] == 0 and sorted(old) == list(range(8))
    assert h.table[0] == tuple(range(8)) and h.inv[0] == 0
    assert all(old[h.table[a][b]] == t[old[a]][old[b]] for a in range(8) for b in range(8))
    assert h.names == tuple(names[x] for x in old) and h.names[0] == g.names[0]
    assert group_isomorphic(h, g)


def test_constructors_keep_their_element_order():
    for spec in catalog_specs():
        g = parse_spec(spec)
        assert g.renumbering == tuple(range(g.order)), spec


def test_loading_a_document_checks_its_shape_once(monkeypatch, relabelled):
    g = make_dihedral(8)
    calls = []
    check = groups.check_shape
    monkeypatch.setattr(groups, "check_shape", lambda table: calls.append(len(table)) or check(table))
    h, _ = relabelled(g, random.Random(8))
    assert h.renumbering[0] != 0  # the document's identity was not at index 0
    assert calls == [8]


def test_document_round_trip_q8():
    g = make_generalized_quaternion(8)
    h = from_cayley_document(to_cayley_document(g))
    assert h.table == g.table and h.names == g.names


# -- subgroups ------------------------------------------------------------------------


def test_subgroups_c4():
    assert [s.bit_count() for s in all_subgroups(make_cyclic(4))] == [1, 2, 4]


def test_subgroups_q8_all_normal():
    g = make_generalized_quaternion(8)
    subs = all_subgroups(g)
    assert len(subs) == 6 and all(is_normal_mask(g, s) for s in subs)


def test_subgroups_trivial():
    assert len(all_subgroups(make_cyclic(1))) == 1


SUBGROUP_COUNTS = {
    "C2xC2xC2xC2": 67,
    "C2xC2xC4": 27,
    "D16": 19,
    "D12": 16,
    "C2xC2xC2": 16,
    "C4xC4": 15,
    "C2xC8": 11,
    "Q16": 11,
    "D8": 10,
    "A4": 10,
}


@pytest.mark.parametrize("spec", catalog_specs())
def test_subgroups_complete_for_every_catalog_group(spec):
    # independent oracle: filter every subset holding the identity for closure under the product
    g = parse_spec(spec)
    subs = all_subgroups(g)
    expected = {m for m in range(1, 1 << g.order, 2) if is_subgroup_mask(g, m)}
    assert set(subs) == expected and len(subs) == len(expected)
    assert subs == sorted(subs, key=lambda m: (m.bit_count(), m))
    if spec.startswith("C") and "x" not in spec:
        # a cyclic group has one subgroup per divisor of its order
        assert len(subs) == sum(g.order % d == 0 for d in range(1, g.order + 1))
    elif spec in SUBGROUP_COUNTS:
        assert len(subs) == SUBGROUP_COUNTS[spec]


@pytest.mark.parametrize(
    "spec, counts",
    [
        ("C2xC2xC2xC2xC2", [1, 31, 155, 155, 31, 1]),  # Gaussian binomials [5 k]_2, 374 in all
        ("C4xC8", [1, 3, 7, 7, 3, 1]),
        ("C2xC16", [1, 3, 3, 3, 3, 1]),
        ("C8xC8", [1, 3, 7, 15, 7, 3, 1]),
        ("C2xC32", [1, 3, 3, 3, 3, 3, 1]),
        ("C2xC2xC2xC2xC2xC2", [1, 63, 651, 1395, 651, 63, 1]),  # Gaussian binomials [6 k]_2, 2,825 in all
    ],
)
def test_subgroup_counts_above_order_16_match_closed_forms(spec, counts):
    # counts[k] is the number of subgroups of order 2^k, from the closed forms for abelian 2-groups
    sizes = Counter(s.bit_count() for s in all_subgroups(parse_spec(spec)))
    assert sizes == {1 << k: c for k, c in enumerate(counts)}


def test_c2_6_has_63_maximal_2cogroups_the_complements_of_its_index_2_subgroups():
    # C2^6 is F_2^6 under xor; its index-2 subgroups are the kernels {x : v.x = 0} of the 63 nonzero v
    g = parse_spec("C2xC2xC2xC2xC2xC2")
    assert all(g.table[x][y] == x ^ y for x in range(64) for y in range(64))
    kernels = [mask_from_elements(x for x in range(64) if (x & v).bit_count() % 2 == 0) for v in range(1, 64)]
    maximal = maximal_cogroup_masks(g)
    assert len(maximal) == 63
    assert maximal == sorted((g.full_mask() ^ h, h, g.full_mask()) for h in kernels)


@pytest.mark.parametrize("spec, calls", [("C2xC2xC2xC2", 240), ("D8", 25), ("A4", 40), ("Q16", 40)])
def test_all_subgroups_takes_one_closure_per_right_coset(monkeypatch, spec, calls):
    # <h, a*x> = <h, x> for a in h: one closure per right coset h*x other than h, sum of [X:h] - 1
    g = parse_spec(spec)
    masks = []
    monkeypatch.setattr(groups, "closure", lambda table, mask: masks.append(mask) or closure(table, mask))
    subs = all_subgroups(g)
    assert len(masks) == sum(g.order // h.bit_count() - 1 for h in subs) == calls


def _element_lattice(g):
    """Every subgroup mask: h is extended by the least element of each right coset h*x, and each
    extension is closed one element at a time under right products by its generators."""
    def close(gens):
        seen, frontier = gens, list(mask_elements(gens))
        while frontier:
            y = frontier.pop()
            for s in mask_elements(gens):
                z = g.table[y][s]
                if not seen >> z & 1:
                    seen |= 1 << z
                    frontier.append(z)
        return seen

    found, frontier = {1: 0}, [1]
    while frontier:
        h = frontier.pop()
        covered = h
        for x in range(g.order):
            if not covered >> x & 1:
                covered |= mask_from_elements(g.table[a][x] for a in mask_elements(h))
                k = close(found[h] | 1 << x)
                if k not in found:
                    found[k] = found[h] | 1 << x
                    frontier.append(k)
    return sorted(found, key=lambda m: (m.bit_count(), m))


@pytest.mark.parametrize("spec", ["C2xC2xC2xC2xC2xC2", "D16xC2xC2", "Q8xQ8", "C4xC4xC4"])
def test_lattice_matches_an_element_closure_at_order_64(spec, relabelled):
    h, _ = relabelled(parse_spec(spec), random.Random(64))
    assert all_subgroups(h) == _element_lattice(h)


def test_conj_images_are_the_conjugates_by_definition():
    for spec in catalog_specs():
        g = parse_spec(spec)
        t, inv = g.table, g.inv
        masks = all_subgroups(g) + [k for k, _, _ in maximal_cogroup_masks(g)] + [0, g.full_mask() - 1]
        for mask in masks:
            conjugates = [mask_from_elements(t[t[x][a]][inv[x]] for a in mask_elements(mask)) for x in range(g.order)]
            assert g.conj_images(mask) == conjugates, (spec, mask)
            assert [g.conj_mask(x, mask) for x in range(g.order)] == conjugates
            assert is_normal_mask(g, mask) == (set(conjugates) == {mask})


def test_maximal_cogroups_match_the_all_pairs_definition():
    for spec in catalog_specs():
        g = parse_spec(spec)
        ks = cogroup_masks(g)
        expected = [t for t in ks if not any(o[0] != t[0] and o[0] & t[0] == t[0] for o in ks)]
        assert maximal_cogroup_masks(g) == expected, spec


def _two_sided_closure(table, mask):
    """The naive fixed point: add every product of two members until none is new."""
    while True:
        members = list(mask_elements(mask))
        grown = mask
        for a in members:
            for b in members:
                grown |= 1 << table[a][b]
        if grown == mask:
            return mask
        mask = grown


def test_generator_closure_is_the_two_sided_fixed_point():
    rng = random.Random(13)
    tables = [parse_spec(spec).table for spec in ("D8", "Q16", "A4", "C2xC2xC4", "D12", "C15")]
    # two semigroups that are not groups: left zeros times C2, and lambda(C4)
    for sem in (build_type_semigroup(2, {("C", 1): 1}), lambda_semigroup(make_cyclic(4))):
        tables.append(subtable(sem.mul, range(sem.size)))
    for table in tables:
        n = len(table)
        for _ in range(60):
            mask = sum(1 << x for x in rng.sample(range(n), rng.randint(1, 3)))
            assert closure(table, mask) == _two_sided_closure(table, mask)


def test_quotient_c4():
    g = make_cyclic(4)
    sub = next(s for s in all_subgroups(g) if s.bit_count() == 2)
    q = quotient(g, sub)
    # |C4| / |q| = 2 = |sub|: the kernel is all of sub
    assert q.order == 2 and group_isomorphic(q, make_cyclic(2))


def test_quotient_q8_center():
    g = make_generalized_quaternion(8)
    sub = next(s for s in all_subgroups(g) if s == g.center_mask())
    q = quotient(g, sub)
    assert group_isomorphic(q, direct_product(make_cyclic(2), make_cyclic(2)))


def test_quotient_by_whole_group():
    g = make_dihedral(6)
    q = quotient(g, all_subgroups(g)[-1])
    assert q.order == 1


def test_quotient_rejects_non_normal():
    g = make_dihedral(6)
    sub = next(s for s in all_subgroups(g) if s.bit_count() == 2 and not is_normal_mask(g, s))
    with pytest.raises(ValueError):
        quotient(g, sub)


def test_quotient_rejects_a_mask_that_is_not_a_normal_subgroup():
    d6 = make_dihedral(6)
    classes = 0b111001  # the identity and the three reflections: conjugation-invariant, not a subgroup
    assert all(d6.conj_mask(x, classes) == classes for x in range(d6.order))
    # {1, s} is a subgroup but not normal; {0, 1} is no subgroup of C4, yet its translates tile C4
    for g, mask in ((d6, 0b001001), (d6, classes), (make_cyclic(4), 0b0011)):
        with pytest.raises(ValueError, match="quotient requires a normal subgroup"):
            quotient(g, mask)


def test_quotient_checks_the_coset_projection_row_by_row(monkeypatch):
    # a valid C4 table with 1 and 2 swapped: the swap is no automorphism of C4; the check reads
    # the row of each generator of g, and C4's one generator is 1
    swapped = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    g = make_cyclic(4)
    assert g.generators == (1,)
    monkeypatch.setattr(groups, "restrict", lambda table, elems, label=None: swapped)
    with pytest.raises(InvariantError, match="not a homomorphism at 1"):
        quotient(g, 1)


def test_refusals_survive_python_dash_o():
    # python -O strips assert statements: both checks must still raise
    code = (
        "import sys\n"
        "from superext import groups\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        f"    groups.from_cayley_document({{'order': 5, 'table': {NONASSOCIATIVE_LOOP!r}}})\n"
        "except groups.GroupValidationError as exc:\n"
        "    print(exc.kind, exc.witness)\n"
        "g = groups.make_cyclic(4)\n"
        "groups.restrict = lambda table, elems, label=None: [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]\n"
        "try:\n"
        "    groups.quotient(g, 1)\n"
        "except groups.InvariantError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "associativity (1, 1, 2)", "coset projection is not a homomorphism at 1"]


def test_quotient_refuses_classes_whose_identity_class_is_not_the_kernel(monkeypatch):
    # the identity's class is the orbit of 0 under x -> x*N, which is N itself, so only a broken
    # partition reaches this check: all of C4 as one class is a congruence, but its kernel is not {0, 2}
    monkeypatch.setattr(groups, "orbits", lambda points, images: [sorted(points)])
    with pytest.raises(InvariantError, match="wrong kernel"):
        quotient(make_cyclic(4), 0b0101)


def test_a_mask_without_the_identity_is_no_subgroup():
    # the empty mask is the only product-closed one without the identity
    assert is_subgroup_mask(make_cyclic(4), 0) is False


# -- hom counting -----------------------------------------------------------------------


def test_hom_counts_c2_c4():
    g = direct_product(make_cyclic(2), make_cyclic(4))
    assert hom_count_to_cyclic2(g, 1) == 4
    assert hom_count_to_cyclic2(g, 2) == 8


def test_hom_count_trivial_target():
    for spec in ("C6", "D8", "A4", "Q8"):
        assert hom_count_to_cyclic2(parse_spec(spec), 0) == 1


def test_exponents_out_of_range_are_rejected():
    with pytest.raises(ValueError, match="exponent out of range"):
        hom_count_to_cyclic2(make_cyclic(2), -1)
    with pytest.raises(ValueError, match="positive integer"):
        fg_abelian_q(FgAbelianPresentation(0, (2,)), 0)


def test_hom_count_duality_oracle(spec_invariant_factors):
    # independent oracle for abelian g: the gcd product over factors typed from the spec
    abelian = [spec for spec in catalog_specs(16) if parse_spec(spec).is_abelian]
    assert len(abelian) == 23
    for spec in abelian:
        presentation = FgAbelianPresentation(0, spec_invariant_factors(spec))
        for k in range(0, 5):
            assert hom_count_to_cyclic2(parse_spec(spec), k) == presentation.hom_count_to_cyclic2(k), (spec, k)


def test_hom_count_nonabelian_factors_through_commutators():
    # A4 abelianizes to C3: no homs onto any C_{2^k} beyond the trivial one
    g = make_alternating4()
    assert hom_count_to_cyclic2(g, 1) == 1
    assert hom_count_to_cyclic2(g, 3) == 1
    # D8 abelianizes to the Klein group
    assert hom_count_to_cyclic2(make_dihedral(8), 1) == 4
    assert hom_count_to_cyclic2(make_dihedral(8), 2) == 4
    # typed by hand: Q8 and Q16 abelianize to C2xC2, D6 to C2, C2xD8 to C2^3
    for spec, k, count in (("Q8", 1, 4), ("Q8", 2, 4), ("Q16", 1, 4), ("D6", 1, 2), ("C2xD8", 1, 8)):
        assert hom_count_to_cyclic2(parse_spec(spec), k) == count, (spec, k)


# -- odd subgroup ----------------------------------------------------------------------


def test_odd_subgroup_c6():
    sub = odd_subgroup(make_cyclic(6))
    assert sorted(mask_elements(sub)) == [0, 2, 4]


def test_odd_subgroup_a4_trivial():
    assert odd_subgroup(make_alternating4()) == 1


def test_odd_subgroup_c2_trivial():
    assert odd_subgroup(make_cyclic(2)) == 1


def test_odd_subgroup_properties_catalog():
    for spec in catalog_specs(16):
        g = parse_spec(spec)
        sub = odd_subgroup(g)
        assert is_normal_mask(g, sub)
        assert all(g.element_orders[x] % 2 for x in mask_elements(sub))
        for s in all_subgroups(g):
            if is_normal_mask(g, s) and all(g.element_orders[x] % 2 for x in mask_elements(s)):
                assert s & sub == s


def test_odd_subgroup_builds_the_lattice_once(monkeypatch):
    from superext import groups

    calls = []

    def counted(g):
        calls.append(g)
        return all_subgroups(g)

    monkeypatch.setattr(groups, "all_subgroups", counted)
    g = make_dihedral(8)
    assert odd_subgroup(g) == 1
    assert len(calls) == 1


def test_odd_subgroup_refuses_a_normal_odd_subgroup_outside_the_intersection(monkeypatch):
    # C3 has no 2-cogroup; a made-up maximal one with KK = {0} leaves C3 itself outside
    monkeypatch.setattr(groups, "maximal_cogroup_masks", lambda g: [(0, 1, 0)])
    with pytest.raises(InvariantError, match="disagrees with the normal closures"):
        odd_subgroup(make_cyclic(3))


def test_odd_subgroup_refuses_an_intersection_above_the_direct_search(monkeypatch):
    # with C2's one maximal 2-cogroup dropped the intersection is all of C2, whose odd part is {0}
    monkeypatch.setattr(groups, "maximal_cogroup_masks", lambda g: [])
    with pytest.raises(InvariantError, match="disagrees with the normal closures"):
        odd_subgroup(make_cyclic(2))


@pytest.mark.parametrize("spec", ["C2xC2xC2xC2xC2xC2", "Q8xQ8", "D16xC2xC2", "C4xC4xC4", "A4xC4", "C3xQ8", "D6xD6"])
def test_odd_subgroup_is_the_largest_normal_odd_subgroup_up_to_order_64(spec, relabelled):
    # the definition, read off the whole lattice: normal, and every element of odd order
    g, _ = relabelled(parse_spec(spec), random.Random(64))
    odd = [
        s for s in all_subgroups(g)
        if is_normal_mask(g, s) and all(g.element_orders[x] % 2 for x in mask_elements(s))
    ]
    sub = odd_subgroup(g)
    assert sub in odd and all(s & sub == s for s in odd), spec


# -- q-count consistency (subgroup census vs hom formula, abelian) -------------------------


def quotient_q_census(g, k):
    """Count subgroups with quotient the cyclic group of order 2^k."""
    target = make_cyclic(2**k)
    count = 0
    for s in all_subgroups(g):
        if not is_normal_mask(g, s) or g.order // s.bit_count() != 2**k:
            continue
        q = quotient(g, s)
        if group_isomorphic(q, target):
            count += 1
    return count


def test_q_census_matches_hom_formula_for_abelian():
    for spec in catalog_specs(16):
        g = parse_spec(spec)
        if not g.is_abelian:
            continue
        for k in range(1, 5):
            formula = (hom_count_to_cyclic2(g, k) - hom_count_to_cyclic2(g, k - 1)) // 2 ** (k - 1)
            assert quotient_q_census(g, k) == formula, (spec, k)


# -- isomorphism testing -----------------------------------------------------------------


def test_isomorphism_basics():
    assert group_isomorphic(make_cyclic(8), make_cyclic(8))
    assert not group_isomorphic(direct_product(make_cyclic(2), make_cyclic(4)), make_cyclic(8))
    assert not group_isomorphic(make_dihedral(8), make_generalized_quaternion(8))
    assert group_isomorphic(make_dihedral(6), parse_spec("D6"))


def test_isomorphism_trivial_group():
    trivial = FiniteGroup([[0]])
    for other, same in ((make_cyclic(1), True), (make_cyclic(2), False)):
        assert group_isomorphic(trivial, other) is same
        assert group_isomorphic(other, trivial) is same


def test_find_isomorphism_refuses_a_full_assignment_with_an_unmapped_element():
    # in the null semigroup on {0, 1} the generator 0 reaches only itself, so 1 stays unmapped;
    # with the -1 read as the last index the product check alone would accept [0, -1]
    null = [[0, 0], [0, 0]]
    assert find_isomorphism(null, null, [0], [0, 0], [0, 0]) is None


def test_find_isomorphism_refuses_a_bijection_that_keeps_only_the_generator_products():
    # t2 is C3's table with the entry 0*2 changed: x -> x keeps every product by the generator 1,
    # which is all that the extension step checks, but not 0*2
    c3 = make_cyclic(3).table
    t2 = [[0, 1, 1], [1, 2, 0], [2, 0, 1]]
    assert find_isomorphism(c3, t2, [1], [0] * 3, [0] * 3) is None


# -- fg abelian presentations ---------------------------------------------------------------


def test_fg_abelian_q_integers():
    z = FgAbelianPresentation(free_rank=1)
    assert all(fg_abelian_q(z, k) == 1 for k in range(1, 11))


def test_fg_abelian_q_c2_c4():
    p = FgAbelianPresentation(free_rank=0, torsion_factors=(2, 4))
    assert fg_abelian_q(p, 1) == 3
    assert fg_abelian_q(p, 2) == 2
    assert fg_abelian_q(p, 3) == 0


def test_fg_abelian_q_odd():
    p = FgAbelianPresentation(free_rank=0, torsion_factors=(3,))
    assert all(fg_abelian_q(p, k) == 0 for k in range(1, 6))


def test_fg_abelian_q_infinity_marker():
    # a quotient of a finitely generated group is finitely generated, and C_{2^infinity} is not
    for p in (FgAbelianPresentation(0, (2, 4)), FgAbelianPresentation(2, (6,)), FgAbelianPresentation(1)):
        assert fg_abelian_q(p, INFINITY) == 0


def test_fg_abelian_invariant_factor_validation():
    # any cyclic decomposition counts the same: C3 x C2 = C6, and a C1 factor adds nothing
    with pytest.raises(ValueError):
        FgAbelianPresentation(-1)
    for factors, invariant in (((3, 2), (6,)), ((2, 1, 4), (2, 4))):
        for k in range(1, 6):
            assert fg_abelian_q(FgAbelianPresentation(0, factors), k) == fg_abelian_q(
                FgAbelianPresentation(0, invariant), k
            )


def test_fg_abelian_q_matches_finite_group_census():
    # the symbolic formula against the concrete subgroup census
    pairs = [
        (FgAbelianPresentation(0, (2, 4)), parse_spec("C2xC4")),
        (FgAbelianPresentation(0, (8,)), parse_spec("C8")),
        (FgAbelianPresentation(0, (2, 2, 2)), parse_spec("C2xC2xC2")),
        (FgAbelianPresentation(0, (6,)), parse_spec("C6")),
    ]
    for pres, g in pairs:
        for k in range(1, 4):
            assert fg_abelian_q(pres, k) == quotient_q_census(g, k)


# -- validation of constructed groups site-wide -----------------------------------------------


def test_every_catalog_group_validates():
    for spec in catalog_specs(16):
        g = parse_spec(spec)
        FiniteGroup(g.table, names=g.names)  # full re-validation


def test_validation_error_kinds():
    with pytest.raises(GroupValidationError):
        FiniteGroup([[0, 1], [1, 1]])
    # an identity at index 1 is moved to index 0, not refused
    g = FiniteGroup([[1, 0], [0, 1]], names=["a", "e"])
    assert g.table == ((0, 1), (1, 0)) and g.renumbering == (1, 0) and g.names == ("e", "a")
    with pytest.raises(GroupValidationError) as exc:
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])  # a latin square without an identity
    assert exc.value.kind == "identity"


@pytest.mark.parametrize(
    "table, names, kind",
    [
        ([], None, "shape"),  # empty table
        ([[0, 1], [1]], None, "shape"),  # ragged row
        ([[0, 1], [1, 2]], None, "shape"),  # entry out of range
        ([[0, 1], [1, 0]], ["e"], "shape"),  # names length
        ([[0, 1], [0, 1]], None, "latin_square"),  # rows permute, column 0 does not
        ([[0, 1], [1, 0.5]], None, "shape"),  # a float entry is not coerced
        ([["0", "1"], ["1", "0"]], None, "shape"),  # nor is a str entry
        (5, None, "shape"),  # not a list: refused before its length is read
        (None, None, "shape"),
    ],
)
def test_finite_group_checks_its_own_table(table, names, kind):
    with pytest.raises(GroupValidationError) as exc:
        FiniteGroup(table, names=names)
    assert exc.value.kind == kind


def test_latin_square_witness_is_the_first_column():
    # every row is a permutation; columns 0 and 1 both repeat, and column 0 is named
    table = [[0, 1, 2], [1, 2, 0], [0, 2, 1]]
    with pytest.raises(GroupValidationError) as exc:
        FiniteGroup(table)
    assert exc.value.kind == "latin_square" and exc.value.witness == 0
    assert "column 0" in str(exc.value)


def test_shift_mask_above_the_shift_table_order():
    # shifts read the order <= 16 shift tables, so above that order they refuse
    g = make_cyclic(32)
    evens = sum(1 << i for i in range(0, 32, 2))
    for call in (lambda: g.shift_row(1), lambda: g.shift_mask(1, evens), lambda: fix_operators(g, evens)):
        with pytest.raises(ValueError, match="order <= 16"):
            call()


@pytest.mark.parametrize("spec", ["C12", "D16", "Q16"])
def test_shift_row_is_the_elementwise_product(spec):
    g = parse_spec(spec)
    rng = random.Random(spec)
    for x in range(g.order):
        row = g.shift_row(x)
        assert len(row) == 1 << g.order
        for m in [0, g.full_mask()] + rng.sample(range(1 << g.order), 64):
            assert row[m] == mask_from_elements(g.mul(x, a) for a in mask_elements(m)), (spec, x, m)


def test_deeply_nested_file_is_a_shape_error(tmp_path):
    # json.load raises RecursionError here, a RuntimeError the CLI would call an invariant failure
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_file(path)
    assert exc.value.kind == "shape" and "too deep" in str(exc.value)


@pytest.mark.parametrize(
    "document",
    [
        [[0]],  # not a dict
        {"order": 2},  # no table
        {"order": "3", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        {"order": 0, "table": []},
        {"order": 65, "table": [[(i + j) % 65 for j in range(65)] for i in range(65)]},
        {"order": 2, "table": [[0, 1], [1, 0], [0, 1]]},  # 3 rows for order 2
        {"order": 2, "table": [[0, 1], [1]]},  # ragged row
        {"order": 2, "table": [[0, 1], [1, 1.5]]},
        {"order": 2, "table": [[0, 1], ["1", 0]]},
        {"order": 2, "table": [[0, 1], [1, 2]]},
        {"order": 2, "table": 5},  # table not a list
        {"order": 1, "table": [5]},  # row not a list
        {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": ["a"]},
        {"order": 1, "table": [[0]], "names": "e"},  # names not a list
        {"order": True, "table": [[0]]},  # True == 1, but a boolean is no order
        {"order": 2, "table": [[False, True], [True, False]]},  # booleans are no entries
    ],
)
def test_document_shape_rejections(document):
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_document(document)
    assert exc.value.kind == "shape"


@pytest.mark.parametrize(
    "entry, message",
    [
        (False, "entry (1,1) = False is not an integer"),
        (1.5, "entry (1,1) = 1.5 is not an integer"),
        ("1", "entry (1,1) = '1' is not an integer"),
        (2, "entry (1,1) = 2 out of range"),
    ],
)
def test_table_entry_error_names_type_or_range(entry, message):
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_document({"order": 2, "table": [[0, 1], [1, entry]]})
    assert exc.value.kind == "shape" and str(exc.value) == message
