"""Maximal linked systems, the semigroup product, the function representation."""

import hashlib
import io
import random
import re
from collections.abc import Sequence

import pytest

from superext.cli import parse_spec
from superext.groups import make_cyclic
from superext.setfam import (
    BudgetExceeded,
    FamilyOfSets,
    MlsSignature,
    circ,
    count_mls,
    enumerate_mls,
    family_to_signature,
    is_linked,
    is_maximal_linked,
    phi,
    phi_inverse,
    phi_map,
    principal_ultrafilter,
    write_mls_stream,
)

SMALL = ["C1", "C2", "C3", "C4", "C2xC2"]


def all_signature_candidates(g):
    """Independent oracle: filter every self-dual choice vector for the
    maximal-linked property on the explicit family (orders <= 4 only)."""
    half = 1 << (g.order - 1)
    for bits in range(1 << half):
        sig = MlsSignature(g, bits)
        if is_maximal_linked(sig.to_family()):
            yield bits


def majority_c3():
    g = make_cyclic(3)
    members = frozenset(m for m in range(8) if bin(m).count("1") >= 2)
    return family_to_signature(FamilyOfSets(g, members))


# -- shifts ---------------------------------------------------------------------------


def test_shift_by_identity():
    g = make_cyclic(4)
    for a in range(16):
        assert g.shift_mask(0, a) == a


def test_shift_modular():
    g = make_cyclic(4)
    assert g.shift_mask(2, 0b0011) == 0b1100


def test_shift_full_set():
    g = parse_spec("D6")
    for x in range(6):
        assert g.shift_mask(x, g.full_mask()) == g.full_mask()


# -- linkedness ------------------------------------------------------------------------


def test_majority_family_is_maximal_linked():
    g = make_cyclic(3)
    members = frozenset(m for m in range(8) if bin(m).count("1") >= 2)
    fam = FamilyOfSets(g, members)
    assert is_linked(fam) and is_maximal_linked(fam)


def test_complement_pair_not_linked():
    g = make_cyclic(4)
    assert not is_linked(FamilyOfSets(g, frozenset({0b0011, 0b1100})))


def test_signature_refuses_a_linked_family_that_is_not_maximal():
    g = make_cyclic(3)
    fam = FamilyOfSets(g, frozenset({g.full_mask()}))
    assert is_linked(fam)
    with pytest.raises(ValueError, match="not maximal linked"):
        family_to_signature(fam)


def test_principal_ultrafilter_is_maximal_linked():
    g = make_cyclic(4)
    for x in range(4):
        assert is_maximal_linked(principal_ultrafilter(g, x).to_family())


# -- enumeration ------------------------------------------------------------------------


def test_enumeration_matches_exhaustive_oracle():
    for spec in SMALL:
        g = parse_spec(spec)
        expected = sorted(all_signature_candidates(g))
        got = [s.bits for s in enumerate_mls(g)]
        assert got == expected, spec


def test_counts_frozen():
    counts = [len(enumerate_mls(make_cyclic(n))) for n in range(1, 6)]
    assert counts == [1, 2, 4, 12, 81]


def test_two_orders_agree_through_order_five():
    for n in range(1, 6):
        g = make_cyclic(n)
        a = [s.bits for s in enumerate_mls(g, order="skew_first")]
        b = [s.bits for s in enumerate_mls(g, order="balanced_first")]
        c = [s.bits for s in enumerate_mls(g, order="descending")]
        assert a == b == c


def test_order_one_single_system():
    g = make_cyclic(1)
    (sig,) = enumerate_mls(g)
    assert sig.contains(1) and not sig.contains(0)


def test_enumeration_budget():
    g = make_cyclic(5)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_mls(g, budget=10)
    assert exc.value.budget == 10


def test_enumeration_refuses_large_orders():
    with pytest.raises(ValueError):
        enumerate_mls(parse_spec("C7"))  # needs an explicit budget
    with pytest.raises(ValueError):
        enumerate_mls(parse_spec("C8"), budget=10)


def test_enumeration_refuses_an_unknown_order():
    with pytest.raises(ValueError, match="unknown enumeration order"):
        enumerate_mls(make_cyclic(3), order="bogus")


def test_enumeration_order_seven_behind_budget():
    g = make_cyclic(7)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_mls(g, budget=50)
    assert exc.value.budget == 50


# -- membership -------------------------------------------------------------------------


def test_contains_full_never_empty():
    for spec in SMALL:
        g = parse_spec(spec)
        for sig in enumerate_mls(g):
            assert sig.contains(g.full_mask()) and not sig.contains(0)


def test_principal_membership():
    g = make_cyclic(4)
    for x in range(4):
        sig = principal_ultrafilter(g, x)
        for m in range(16):
            assert sig.contains(m) == bool((m >> x) & 1)


def test_majority_membership():
    sig = majority_c3()
    assert sig.contains(0b011) and not sig.contains(0b100)


def test_self_duality_every_system():
    for spec in SMALL:
        g = parse_spec(spec)
        full = g.full_mask()
        for sig in enumerate_mls(g):
            for a in range(1, full):
                assert sig.contains(a) != sig.contains(a ^ full)


# -- the product -------------------------------------------------------------------------


def test_principal_ultrafilters_multiply_like_the_group():
    for spec in ("C4", "D6", "C2xC2"):
        g = parse_spec(spec)
        for x in range(g.order):
            for y in range(g.order):
                prod = circ(principal_ultrafilter(g, x), principal_ultrafilter(g, y))
                assert prod.bits == principal_ultrafilter(g, g.table[x][y]).bits


def test_majority_is_a_right_zero():
    g = make_cyclic(3)
    maj = majority_c3()
    assert circ(maj, maj).bits == maj.bits
    for sig in enumerate_mls(g):
        assert circ(sig, maj).bits == maj.bits


def test_circ_associative_on_lambda_c4():
    g = make_cyclic(4)
    systems = enumerate_mls(g)
    for a in systems:
        for b in systems:
            ab = circ(a, b)
            for c in systems:
                assert circ(ab, c).bits == circ(a, circ(b, c)).bits


def test_circ_family_path_matches_signature_path():
    g = make_cyclic(4)
    systems = enumerate_mls(g)
    rng = random.Random(7)
    for _ in range(20):
        a, b = rng.choice(systems), rng.choice(systems)
        fam = circ(a.to_family(), b.to_family())
        assert fam.members == circ(a, b).to_family().members


def test_circ_refuses_operands_over_different_groups():
    with pytest.raises(ValueError, match="different groups"):
        circ(enumerate_mls(make_cyclic(2))[0], enumerate_mls(make_cyclic(3))[0])


# -- the function representation --------------------------------------------------------------


def test_phi_of_identity_ultrafilter_is_identity():
    g = make_cyclic(4)
    sig = principal_ultrafilter(g, 0)
    for a in range(16):
        assert phi(sig, a) == a


def test_phi_of_majority():
    g = make_cyclic(3)
    maj = majority_c3()
    for a in range(8):
        size = bin(a).count("1")
        if size == 2:
            assert phi(maj, a) == g.full_mask()
        elif size == 1:
            assert phi(maj, a) == 0


def test_phi_equivariance():
    g = make_cyclic(4)
    for sig in enumerate_mls(g):
        for a in range(16):
            fa = phi(sig, a)
            for x in range(4):
                assert phi(sig, g.shift_mask(x, a)) == g.shift_mask(x, fa)


def test_phi_homomorphism_exhaustive_small():
    # phi(a o b, S) = phi(a, phi(b, S)) over every pair and every subset
    for spec in SMALL:
        g = parse_spec(spec)
        systems = enumerate_mls(g)
        masks = range(g.full_mask() + 1)
        for a in systems:
            for b in systems:
                ab = circ(a, b)
                for s in masks:
                    assert phi(ab, s) == phi(a, phi(b, s))


def test_phi_homomorphism_sampled_orders_5_6():
    rng = random.Random(0)
    for n in (5, 6):
        g = make_cyclic(n)
        systems = enumerate_mls(g)
        full = g.full_mask()
        for _ in range(10_000):
            a = rng.choice(systems)
            b = rng.choice(systems)
            s = rng.randrange(full + 1)
            assert phi(circ(a, b), s) == phi(a, phi(b, s))


def test_phi_is_injective_on_lambda():
    for spec in SMALL:
        g = parse_spec(spec)
        maps = {phi_map(s) for s in enumerate_mls(g)}
        assert len(maps) == len(enumerate_mls(g))


def test_phi_inverse_inverts_phi_on_every_family_through_order_3():
    # Phi of any family is equivariant; it is symmetric and monotone exactly
    # when the family is self-dual and upward closed, i.e. maximal linked
    for spec in ("C1", "C2", "C3"):
        g = parse_spec(spec)
        subsets = range(g.full_mask() + 1)
        for choice in range(1 << len(subsets)):
            fam = FamilyOfSets(g, frozenset(a for a in subsets if choice >> a & 1))
            if is_maximal_linked(fam):
                assert phi_inverse(phi_map(fam), g) == family_to_signature(fam), (spec, choice)
            else:
                with pytest.raises(ValueError):
                    phi_inverse(phi_map(fam), g)


def test_phi_inverse_round_trip():
    for spec in ("C4", "C2xC2", "D6"):
        g = parse_spec(spec)
        for sig in enumerate_mls(g):
            assert phi_inverse(phi_map(sig), g).bits == sig.bits, spec


def test_phi_inverse_of_identity_map():
    g = make_cyclic(4)
    assert phi_inverse(tuple(range(16)), g).bits == principal_ultrafilter(g, 0).bits


def test_phi_inverse_equivariance_gate():
    g = make_cyclic(4)
    # constant X is equivariant but not symmetric; constant {0, 1} is not equivariant
    for value in (g.full_mask(), 0b0011):
        with pytest.raises(ValueError, match="not equivariant or not symmetric"):
            phi_inverse((value,) * 16, g)


def test_phi_inverse_monotone_gate():
    g = make_cyclic(4)
    # Phi of a self-dual selector holding the disjoint {0} and {1}: equivariant
    # and symmetric, but not monotone
    with pytest.raises(ValueError, match="not monotone"):
        phi_inverse(phi_map(MlsSignature(g, 0b0110)), g)


@pytest.mark.parametrize(
    "spec, bits",
    [
        ("C4", 0b0110),  # the selector above
        ("D6", 0xE8E8E880 | 1 << 0b000010),  # the projection idempotent with {1} put in for X\{1}
    ],
)
def test_phi_inverse_monotone_gate_names_a_covering_pair(spec, bits):
    g = parse_spec(spec)
    f = phi_map(MlsSignature(g, bits))
    with pytest.raises(ValueError, match="not monotone") as info:
        phi_inverse(f, g)
    a, b = map(int, re.fullmatch(r"map is not monotone at (\d+) <= (\d+)", str(info.value)).groups())
    assert (a ^ b).bit_count() == 1 and b & ~a
    assert f[a] & ~f[b]


# -- stream format -----------------------------------------------------------------------------


def test_stream_round_trip(expected_stream):
    # the exact text of write_mls_stream for C1-C6, and one stream spelled out
    for spec in ("C1", "C2", "C3", "C4", "C5", "C6"):
        g = parse_spec(spec)
        buf = io.StringIO()
        write_mls_stream(buf, g, enumerate_mls(g))
        assert buf.getvalue() == expected_stream(g), spec
    assert expected_stream(make_cyclic(3)) == "n=3 pairs=4\n0\n8\na\nc\n"


def test_stream_round_trip_c5_d6(expected_stream):
    # D6, the one non-abelian group of order <= 6, beside C5
    for spec in ("C5", "D6"):
        g = parse_spec(spec)
        buf = io.StringIO()
        write_mls_stream(buf, g, enumerate_mls(g))
        assert buf.getvalue() == expected_stream(g), spec


# -- enumeration beyond order 5 ------------------------------------------------------------


def test_two_orders_agree_on_order_six():
    for spec in ("C6", "D6"):
        g = parse_spec(spec)
        a = [s.bits for s in enumerate_mls(g, order="skew_first")]
        b = [s.bits for s in enumerate_mls(g, order="balanced_first")]
        c = [s.bits for s in enumerate_mls(g, order="descending")]
        assert len(a) == 2646 and a == b == c, spec


C7_DIGEST = "f9a49a7d961dc86156fb99e63e123009e4a1243de7a92954915b374ad32a3fc1"


def test_order_seven_output_pinned():
    """The sorted C7 signatures, pinned by the digest of the pair-loop enumerator."""
    sigs = enumerate_mls(make_cyclic(7), budget=2_000_000)
    assert len(sigs) == 1_422_564
    assert hashlib.sha256(repr([s.bits for s in sigs]).encode()).hexdigest() == C7_DIGEST


@pytest.mark.parametrize("spec", ["C1", "C2", "C3", "C4", "C5", "C6", "D6", "C2xC2"])
def test_count_matches_the_enumeration_in_every_search_order(spec):
    g = parse_spec(spec)
    for order in ("descending", "skew_first", "balanced_first"):
        assert count_mls(g) == len(enumerate_mls(g, order=order)), order


def test_count_of_order_seven_pinned():
    assert count_mls(make_cyclic(7), budget=2_000_000) == 1_422_564


def test_count_keeps_the_order_guards():
    with pytest.raises(ValueError, match="requires an explicit budget"):
        count_mls(make_cyclic(7))
    with pytest.raises(ValueError, match="beyond order 7"):
        count_mls(make_cyclic(8), budget=10)


def _all_or_budget(g, budget):
    """The systems within budget, or BudgetExceeded carrying exactly the budget."""
    try:
        return [s.bits for s in enumerate_mls(g, budget=budget)]
    except BudgetExceeded as exc:
        assert exc.budget == budget
        return None


def test_every_budget_on_order_five():
    full = [s.bits for s in enumerate_mls(make_cyclic(5))]
    for budget in range(82):
        got = _all_or_budget(make_cyclic(5), budget)
        assert got == (full if budget >= 81 else None), budget


def test_budgets_inside_memoized_tails_on_order_six():
    # a budget that runs out while a memoized tail is copied must stop there
    full = [s.bits for s in enumerate_mls(make_cyclic(6))]
    g = make_cyclic(6)  # a raised budget caches nothing, so one group serves the sweep
    for budget in [*range(0, 2646, 29), 2645, 2646, 2647]:
        got = _all_or_budget(g, budget)
        assert got == (full if budget >= 2646 else None), budget


def test_enumeration_is_a_lazy_read_only_sequence():
    g = make_cyclic(5)
    sigs = enumerate_mls(g)
    assert isinstance(sigs, Sequence) and len(sigs) == 81
    assert [s.bits for s in sigs] == [sigs[i].bits for i in range(81)]
    assert sigs[-1] == sigs[80] and sigs[0].group is g
    with pytest.raises(TypeError):
        sigs[1:3]
    with pytest.raises(IndexError):
        sigs[81]
