"""End-to-end structure analysis: structural route, brute route, cross-checks."""

import random
from math import gcd

import pytest

from superext import engine, twin
from superext.cli import parse_spec
from superext.engine import (
    analyze_structural,
    build_projection_idempotent,
    build_type_semigroup,
    catalog_specs,
    cross_check,
    decompose_cq_type,
    lambda_semigroup,
    min_ideal_membership,
    reference_reports,
    strip_left_zero_factor,
    type_string,
)
from superext.groups import (
    FgAbelianPresentation,
    InvariantError,
    all_subgroups,
    direct_product,
    fg_abelian_q,
    hom_count_to_cyclic2,
    make_cyclic,
    make_generalized_quaternion,
    odd_subgroup,
    quotient,
)
from superext.setfam import circ, enumerate_mls, phi, phi_table, principal_ultrafilter
from superext.semigroups import FiniteSemigroup, minimal_ideal, minimal_left_ideal
from superext.twin import cogroup_orbits, fix_minus_table, q_counts, twin_sets_for


# -- type expression normalization ----------------------------------------------------------


def test_type_string_normal_form():
    assert type_string(0, {}) == "1"
    assert type_string(1, {("C", 1): 1}) == "2 x C2"
    assert type_string(2, {("Q", 3): 1, ("C", 1): 5}) == "2^2 x C2^5 x Q8"
    assert type_string(0, {("C", 2): 2, ("C", 1): 3}) == "C2^3 x C4^2"
    assert strip_left_zero_factor("2^6 x C2^3") == "C2^3"
    assert strip_left_zero_factor("2") == "1"


def test_decompose_cq_type():
    assert decompose_cq_type(make_cyclic(1)) == {}
    assert decompose_cq_type(direct_product(make_cyclic(2), make_cyclic(4))) == {
        ("C", 1): 1,
        ("C", 2): 1,
    }
    assert decompose_cq_type(make_generalized_quaternion(8)) == {("Q", 3): 1}
    with pytest.raises(ValueError):
        decompose_cq_type(make_cyclic(6))


# -- structural analysis -------------------------------------------------------------------


def test_structural_q8():
    rep = analyze_structural(parse_spec("Q8"), "Q8")
    assert rep.min_left_ideal_type == "2 x C2^3 x Q8"
    assert rep.max_subgroup_type == "C2^3 x Q8"
    assert rep.idempotents_per_min_left_ideal == 2


def test_structural_c8():
    rep = analyze_structural(parse_spec("C8"), "C8")
    assert rep.min_left_ideal_type == "2 x C2 x C4 x C8"
    assert rep.idempotents_per_min_left_ideal == 2


def test_structural_a4_first_principles():
    # one conjugacy orbit of maximal 2-cogroups, so a single C2 factor and
    # a 2^2 left-zero part; the reference table's row is annotated instead
    rep = analyze_structural(parse_spec("A4"), "A4")
    assert rep.q_vector == ((("C", 1), 1),)
    assert rep.min_left_ideal_type == "2^2 x C2"
    assert rep.max_subgroup_type == "C2"


def test_structural_d8():
    rep = analyze_structural(parse_spec("D8"), "D8")
    assert rep.min_left_ideal_type == "2^2 x C2^5"
    assert rep.max_subgroup_type == "C2^5"
    assert rep.idempotents_per_min_left_ideal == 4


def test_structural_c16():
    rep = analyze_structural(parse_spec("C16"), "C16")
    assert rep.min_left_ideal_type == "2^5 x C2 x C4 x C8 x C16"


def test_structural_q16_matches_closed_form():
    # selector: {-1}, the cyclic-half complement, and two orbits per middle
    # level; closed form 2^(2^n - n - 1) x Q x C2 x (C2 x 2^(2^(n-k)-1))^2
    rep = analyze_structural(parse_spec("Q16"), "Q16")
    assert rep.q_dict() == {("Q", 4): 1, ("C", 1): 5}
    assert rep.left_zero_exponent == (8 - 4) + 2 * (2 ** (3 - 2) - 1) + 2 * (2 ** (3 - 3) - 1)
    assert rep.min_left_ideal_type == "2^6 x C2^5 x Q16"


def test_structural_d16_matches_conjugacy_scan_form():
    # per-level orbit pairs with |[T_K]| = 2^(2^(n-k-1)-1) for k = 1..n-1
    rep = analyze_structural(parse_spec("D16"), "D16")
    assert rep.q_dict() == {("C", 1): 7}
    assert rep.left_zero_exponent == 2 * ((2**2 - 1) + (2**1 - 1) + (2**0 - 1))
    assert rep.min_left_ideal_type == "2^8 x C2^7"


def test_structural_a4_matches_its_endomorphism_monoid():
    # the selector for A4 is a single cogroup; its endomorphism monoid is
    # concrete (4096 equivariant maps) and its minimal left ideal realizes
    # the structural type 2^2 x C2 directly
    from superext.semigroups import end_tk, minimal_left_ideal, rees_decompose
    from superext.twin import maximal_2cogroups

    g = parse_spec("A4")
    k = cogroup_orbits(g)[0].representative
    sem, tk = end_tk(k)
    assert sem.size == 2**4 * 4**4 == 4096
    ideal = minimal_left_ideal(sem)
    rees = rees_decompose(sem, ideal)
    assert rees.left_zero_count == 4 and rees.group.order == 2
    assert len(maximal_2cogroups(g)) == 3  # all conjugate to the selector


def test_structural_rejects_large_orders():
    with pytest.raises(ValueError):
        analyze_structural(parse_spec("D18"), "D18")


def test_structural_m_equals_sum_of_orbit_logs():
    for spec in catalog_specs(16):
        rep = analyze_structural(parse_spec(spec), spec)
        summands = rep.to_json()["m_summands"]
        total = sum(o["orbit_size_T"].bit_length() - 1 for o in summands)
        assert rep.left_zero_exponent == total
        assert rep.idempotents_per_min_left_ideal == 1 << total
        for o in summands:
            assert o["t_size"] == 1 << o["x_mod_kpm"]
            assert o["t_size"] == o["h_order"] * o["orbit_size_T"]


def test_structural_runs_each_lattice_stage_once_per_group(monkeypatch):
    # each stage is wrapped where its caller looks it up; only cogroup_orbits caches,
    # and maximal_2cogroups is read off its orbits without running a stage
    from superext import groups, twin

    calls = dict.fromkeys(("all_subgroups", "cogroup_masks", "maximal_cogroup_masks"), 0)
    for module, name in ((groups, "all_subgroups"), (groups, "cogroup_masks"), (twin, "maximal_cogroup_masks")):
        def counted(g, _stage=getattr(module, name), _name=name):
            calls[_name] += 1
            return _stage(g)

        monkeypatch.setattr(module, name, counted)
    g = groups.make_dihedral(8)
    first = analyze_structural(g, "D8")
    assert calls == dict.fromkeys(calls, 1)
    assert analyze_structural(g, "D8") == first
    assert len(twin.maximal_2cogroups(g)) == 7
    assert calls == dict.fromkeys(calls, 1)


def test_max_subgroup_is_ideal_type_without_left_zeros():
    for spec in catalog_specs(16):
        rep = analyze_structural(parse_spec(spec), spec)
        assert rep.max_subgroup_type == strip_left_zero_factor(rep.min_left_ideal_type)


def test_abelian_q_matches_hom_formula():
    for spec in catalog_specs(16):
        g = parse_spec(spec)
        if not g.is_abelian:
            continue
        rep = analyze_structural(g, spec)
        expected = {}
        for k in range(1, 6):
            q = (hom_count_to_cyclic2(g, k) - hom_count_to_cyclic2(g, k - 1)) // 2 ** (k - 1)
            if q:
                expected[("C", k)] = q
        assert rep.q_dict() == expected, spec


def test_abelian_m_matches_closed_form(spec_invariant_factors):
    # the third route: m = sum over k of q_k * (2^(k-1) - k), q_k from the invariant factors typed from the spec
    abelian = [spec for spec in catalog_specs(16) if parse_spec(spec).is_abelian]
    assert len(abelian) == 23
    for spec in abelian:
        g = parse_spec(spec)
        presentation = FgAbelianPresentation(0, spec_invariant_factors(spec))
        m = sum(fg_abelian_q(presentation, k) * (2 ** (k - 1) - k) for k in range(1, g.order.bit_length() + 1))
        assert analyze_structural(g, spec).left_zero_exponent == m, spec


def cyclic_2_power_quotients(g):
    """q(X, C_{2^k}) = #{H : X/H is cyclic of order 2^k}, keyed as q_dict is, from the
    subgroup lattice and quotients alone, with no cogroup orbit and no hom count."""
    expected = {}
    for h in all_subgroups(g):
        q = quotient(g, h)
        if q.order > 1 and q.order & (q.order - 1) == 0 and q.order in q.element_orders:
            key = ("C", q.order.bit_length() - 1)
            expected[key] = expected.get(key, 0) + 1
    return expected


def test_abelian_q_counts_subgroups_with_cyclic_2_power_quotient():
    # the abstract's statement as written
    abelian = [spec for spec in catalog_specs(16) if parse_spec(spec).is_abelian]
    assert len(abelian) == 23
    for spec in abelian:
        g = parse_spec(spec)
        assert analyze_structural(g, spec).q_dict() == cyclic_2_power_quotients(g), spec


@pytest.mark.parametrize(
    "spec", ["C2xC2xC2xC2xC2", "C4xC8", "C2xC16", "C4xC4xC2", "C8xC8", "C4xC4xC4", "C2xC2xC2xC2xC4"]
)
def test_abelian_q_counts_above_order_16_match_the_quotient_definition(spec):
    # q_counts reads the cogroup orbits, which need no shift rows, so it runs past analyze's cap of 16
    g = parse_spec(spec)
    assert q_counts(g) == cyclic_2_power_quotients(g)


# -- brute analysis -------------------------------------------------------------------------


def test_brute_c2_whole_superextension():
    rep = cross_check(parse_spec("C2"), "C2").brute
    assert rep.min_left_ideal_type == "C2"
    assert rep.idempotents_per_min_left_ideal == 1


def test_brute_c4():
    rep = cross_check(parse_spec("C4"), "C4").brute
    assert rep.min_left_ideal_type == "C2 x C4"
    assert rep.idempotents_per_min_left_ideal == 1


def test_brute_c3_trivial():
    rep = cross_check(parse_spec("C3"), "C3").brute
    assert rep.min_left_ideal_type == "1"
    assert rep.idempotents_per_min_left_ideal == 1


def test_brute_matches_structural_idempotent_count_small():
    for spec in ("C1", "C2", "C3", "C4", "C5", "C2xC2"):
        g = parse_spec(spec)
        brute = cross_check(g, spec).brute
        structural = analyze_structural(g, spec)
        assert brute.idempotents_per_min_left_ideal == structural.idempotents_per_min_left_ideal


# -- cross-checks ---------------------------------------------------------------------------


def test_cross_check_c4():
    check = cross_check(parse_spec("C4"), "C4")
    assert check.verdict == "agree" and check.isomorphism_certified
    assert check.merged.provenance == "both(agree)"


def test_cross_check_c6_collapses_to_c2():
    check = cross_check(parse_spec("C6"), "C6")
    assert check.verdict == "agree"
    assert check.structural.min_left_ideal_type == "C2"


def test_cross_check_klein():
    check = cross_check(parse_spec("C2xC2"), "C2xC2")
    assert check.verdict == "agree"
    assert check.structural.min_left_ideal_type == "C2^3"


def test_cross_check_reports_an_undecided_isomorphism_as_disagree(monkeypatch):
    from superext import engine

    monkeypatch.setattr(engine, "semigroup_isomorphic", lambda s1, s2: None)
    check = cross_check(parse_spec("C4"), "C4")
    assert check.verdict == "disagree" and check.isomorphism_certified is False
    assert check.merged.notes == (
        "isomorphism search hit its budget: verdict indeterminate, reported as disagree",
    )


# -- odd reduction ---------------------------------------------------------------------------


def test_odd_reduction_types_match():
    for spec in ("C6", "C10", "C12", "C2xC3", "D6"):
        g = parse_spec(spec)
        q = quotient(g, odd_subgroup(g))
        a = analyze_structural(g, spec)
        b = analyze_structural(q, spec + "/odd")
        assert a.min_left_ideal_type == b.min_left_ideal_type, spec
        assert a.max_subgroup_type == b.max_subgroup_type, spec
        if g.order <= 6:  # brute side where feasible
            assert cross_check(g, spec).brute.min_left_ideal_type == b.min_left_ideal_type, spec


COPRIME_ODD_PAIRS = [
    (spec, m)
    for spec in catalog_specs(16)
    for m in (3, 5, 7, 9, 15)
    if gcd(parse_spec(spec).order, m) == 1 and parse_spec(spec).order * m <= 16
]


def test_coprime_odd_pairs_are_the_twelve_up_to_order_16():
    assert len(COPRIME_ODD_PAIRS) == 12
    assert ("C4", 3) in COPRIME_ODD_PAIRS and ("C2xC2", 3) in COPRIME_ODD_PAIRS


@pytest.mark.parametrize("spec,m", COPRIME_ODD_PAIRS)
def test_coprime_odd_factor_keeps_the_type(spec, m):
    # every subgroup of X x C_m with gcd(|X|, m) = 1 is A x B, so the odd factor adds nothing
    x = analyze_structural(parse_spec(spec), spec)
    xm = analyze_structural(parse_spec(f"{spec}xC{m}"), f"{spec}xC{m}")
    assert (xm.left_zero_exponent, xm.q_dict()) == (x.left_zero_exponent, x.q_dict())


# -- minimal-ideal membership -----------------------------------------------------------------


def brute_minimal_ideal_membership(g):
    sem = lambda_semigroup(g)
    kernel = minimal_ideal(sem)
    return {sem.labels[i].bits for i in kernel}


def test_membership_matches_brute_through_order_4():
    for spec in ("C1", "C2", "C3", "C4", "C2xC2"):
        g = parse_spec(spec)
        kernel_bits = brute_minimal_ideal_membership(g)
        for sig in enumerate_mls(g):
            assert min_ideal_membership(g, sig) == (sig.bits in kernel_bits), spec


def test_membership_majority_true():
    g = make_cyclic(3)
    maj = next(s for s in enumerate_mls(g) if s.bits == 0b1000)
    assert min_ideal_membership(g, maj)


@pytest.mark.parametrize("spec", ["C4", "C8", "D8", "Q8"])
def test_membership_identity_ultrafilter_false(spec):
    # C4 fails on a value outside the image, the others on the one-shift-orbit test
    from superext.setfam import principal_ultrafilter

    g = parse_spec(spec)
    assert not min_ideal_membership(g, principal_ultrafilter(g, 0))


def table_membership(g, system):
    """The membership test read through the whole-group Fix- table: the image of
    every twin set whose Fix- is a maximal 2-cogroup, split into classes by that Fix-."""
    full = g.full_mask()
    maximal = {k.members for orbit in cogroup_orbits(g) for k in orbit.members}
    fixm = fix_minus_table(g)
    values = phi_table(system)
    image = {values[a] for a in range(full + 1) if fixm[a] in maximal}
    for orbit in cogroup_orbits(g):
        class_masks = {k.members for k in orbit.members}
        in_class = {b for b in image if fixm[b] in class_masks}
        rep = min(in_class)
        if in_class != {g.shift_mask(x, rep) for x in range(g.order)}:
            return False
    allowed = {0, full} | image
    return all(v in allowed for v in values)


@pytest.mark.parametrize("spec", ["C5", "C6", "D6"])
def test_membership_matches_the_fix_minus_table_reading(spec, random_mls):
    g = parse_spec(spec)
    rng = random.Random(spec)
    systems = enumerate_mls(g) if spec == "C5" else [random_mls(g, rng) for _ in range(300)]
    answers = [min_ideal_membership(g, sig) for sig in systems]
    assert answers == [table_membership(g, sig) for sig in systems]
    assert True in answers and False in answers


@pytest.mark.parametrize("spec", ["D8", "Q8", "C2xC4"])
def test_membership_matches_the_fix_minus_table_reading_on_products_with_e(spec, relabelled, random_mls):
    # f*e lies in the minimal ideal K with e, whatever f is; conjugate cogroups on D8
    g = relabelled(parse_spec(spec), random.Random(spec))[0]
    e = build_projection_idempotent(g)
    rng = random.Random(spec)
    for f in (random_mls(g, rng) for _ in range(20)):
        assert min_ideal_membership(g, f) == table_membership(g, f)
        assert min_ideal_membership(g, circ(f, e)) and table_membership(g, circ(f, e))


@pytest.mark.parametrize("spec", ["D16", "C2xC2xC2xC2"])
def test_membership_matches_the_fix_minus_table_reading_at_order_16(spec):
    g = parse_spec(spec)
    e = build_projection_idempotent(g)
    units = [principal_ultrafilter(g, x) for x in range(g.order)]
    for sig, member in [(e, True)] + [(circ(u, e), True) for u in units] + [(u, False) for u in units]:
        assert min_ideal_membership(g, sig) == table_membership(g, sig) == member, sig.bits


# -- the projection idempotent -----------------------------------------------------------------


@pytest.mark.parametrize("spec", ["D8", "Q8", "C2xC4", "A4"])
def test_projection_reads_neither_the_fix_minus_table_nor_t_k(spec, relabelled, monkeypatch):
    def refuse(*_):
        raise AssertionError("the projection idempotent read T_K or the Fix- table")

    g = relabelled(parse_spec(spec), random.Random(spec))[0]
    for module, name in ((twin, "fix_minus_table"), (twin, "twin_sets_for"), (engine, "twin_sets_for")):
        monkeypatch.setattr(module, name, refuse)
    sig = build_projection_idempotent(g)
    monkeypatch.undo()
    assert circ(sig, sig).bits == sig.bits and min_ideal_membership(g, sig)


def test_projection_c3_is_majority():
    sig = build_projection_idempotent(make_cyclic(3))
    assert sig.bits == 0b1000


def test_projection_c2_fixes_twin_classes():
    g = make_cyclic(2)
    sig = build_projection_idempotent(g)
    assert circ(sig, sig).bits == sig.bits
    assert phi(sig, 0b01) == 0b01 and phi(sig, 0b10) == 0b10


def test_projection_c4_idempotent_and_minimal():
    g = make_cyclic(4)
    sig = build_projection_idempotent(g)
    assert circ(sig, sig).bits == sig.bits
    # its image meets each twin family class in exactly one shift orbit
    assert min_ideal_membership(g, sig)


def test_projection_idempotent_small_groups():
    for spec in ("C1", "C2", "C3", "C4", "C5", "C6", "C2xC2", "D6"):
        g = parse_spec(spec)
        sig = build_projection_idempotent(g)
        assert circ(sig, sig).bits == sig.bits, spec
        assert min_ideal_membership(g, sig), spec


def test_projection_respects_selector_families():
    g = parse_spec("C4")
    sig = build_projection_idempotent(g)
    for orbit in cogroup_orbits(g):
        family = twin_sets_for(orbit.representative).twin_masks
        images = {phi(sig, a) for a in family}
        assert images <= set(family)


def test_projection_lands_in_brute_minimal_ideal():
    for spec in ("C2", "C3", "C4", "C2xC2"):
        g = parse_spec(spec)
        sig = build_projection_idempotent(g)
        assert sig.bits in brute_minimal_ideal_membership(g), spec


# -- reports and reference table -----------------------------------------------------------------


def test_reference_reports_annotations():
    rows = dict(reference_reports())
    assert rows["C2xC4"].notes == ()  # reference row and engine agree
    assert any("idempotent count 4" in n for n in rows["D8"].notes)
    assert any("reference lists 2^6 x C2^3" in n for n in rows["A4"].notes)
    assert rows["C8"].idempotents_per_min_left_ideal == 2


def test_reference_reports_cross_check_the_small_rows():
    rows = dict(reference_reports())
    assert rows["C2"].provenance == "both(agree)"
    assert rows["C8"].provenance == "structural"


def test_idempotent_count_matches_brute_e_count():
    # idempotents per minimal left ideal = 2^m, against the measured count
    for spec in ("C1", "C2", "C3", "C4", "C5", "C2xC2"):
        g = parse_spec(spec)
        sem = lambda_semigroup(g)
        ideal = minimal_left_ideal(sem)
        count = sum(1 for x in ideal if sem.mul(x, x) == x)
        assert count == analyze_structural(g, spec).idempotents_per_min_left_ideal, spec


def test_build_type_semigroup_shape():
    sem = build_type_semigroup(2, {("C", 1): 1})
    assert sem.size == 8
    zeros = [i for i in range(sem.size) if all(sem.mul(i, j) == i for j in range(sem.size))]
    assert len(zeros) == 0  # products keep the group coordinate moving
    idems = [i for i in range(sem.size) if sem.mul(i, i) == i]
    assert len(idems) == 4


def test_cross_check_refuses_a_budget_before_any_phi_table(monkeypatch):
    from superext import engine
    from superext.setfam import BudgetExceeded

    def refuse(g, bits):
        raise AssertionError("a Phi table was built")

    monkeypatch.setattr(engine, "indexed_circ", refuse)
    with pytest.raises(BudgetExceeded) as exc:
        cross_check(make_cyclic(6), budget=5)
    assert exc.value.budget == 5


def test_lambda_semigroup_is_fresh_after_cross_check():
    # the benchmark's brute item checks that the two builds are distinct objects
    g = make_cyclic(4)
    check = cross_check(g)
    assert check.verdict == "agree"
    assert lambda_semigroup(g) is not check.semigroup


@pytest.mark.parametrize("spec", ["C4", "C2xC2", "C6", "D6"])
def test_cross_check_proves_the_minimal_left_ideal_once(monkeypatch, spec):
    # z and S*z take 2*|lambda| - 1 products, the proof of L and one table of L |L|^2 each;
    # a second S*z, or a Rees step reading lambda's product, breaks the bound
    from superext import engine

    real_lambda, calls = engine.lambda_semigroup, [0]

    def counting_lambda(g, budget=None):
        sem = real_lambda(g, budget=budget)

        def mul(i, j):
            calls[0] += 1
            return sem.mul(i, j)

        return FiniteSemigroup(sem.size, mul, labels=sem.labels)

    monkeypatch.setattr(engine, "lambda_semigroup", counting_lambda)
    check = cross_check(parse_spec(spec), spec)
    products = calls[0]
    size, ideal_size = check.semigroup.size, len(minimal_left_ideal(check.semigroup))
    assert check.verdict == "agree"
    assert products <= 2 * size + 2 * ideal_size**2, (products, size, ideal_size)


# -- internal checks, each driven by a broken collaborator ---------------------------------------


@pytest.mark.parametrize("tag, match", [(("C", 2), "not a power of two"), (("C", 0), "disagrees with")])
def test_structural_refuses_an_orbit_whose_type_does_not_fit(monkeypatch, tag, match):
    # C4's orbits: K = {2} with [X:K+-] = 2 and H = Stab(K)/KK = C4, and K = {1, 3} with
    # [X:K+-] = 1 and H = C2.  Typed C4, the second has |H| > |T_K| = 2^[X:K+-];
    # typed C1, the first disagrees with |H| = 4
    from dataclasses import replace

    from superext import engine

    g = make_cyclic(4)
    broken = [replace(orbit, characteristic_type=tag) for orbit in cogroup_orbits(g)]
    monkeypatch.setattr(engine, "cogroup_orbits", lambda _: broken)
    with pytest.raises(InvariantError, match=match):
        analyze_structural(g, "C4")


def test_cross_check_refuses_an_idempotent_count_that_is_not_a_power_of_two(monkeypatch):
    from superext import engine
    from superext.semigroups import ReesDecomposition

    monkeypatch.setattr(engine, "rees_decompose", lambda s, ideal: ReesDecomposition(3, make_cyclic(1)))
    with pytest.raises(InvariantError, match="not a power of two"):
        cross_check(make_cyclic(2), "C2")


def test_projection_refuses_a_map_outside_enl(monkeypatch):
    from superext import engine

    def refuse(e_map, g):
        raise ValueError("map is not monotone")

    monkeypatch.setattr(engine, "phi_inverse", refuse)
    with pytest.raises(InvariantError, match="not in Enl"):
        build_projection_idempotent(make_cyclic(4))


def test_projection_refuses_a_map_that_is_not_idempotent(monkeypatch):
    from dataclasses import replace

    from superext import engine

    monkeypatch.setattr(engine, "circ", lambda a, b: replace(a, bits=a.bits ^ 1))
    with pytest.raises(InvariantError, match="not idempotent"):
        build_projection_idempotent(make_cyclic(4))
