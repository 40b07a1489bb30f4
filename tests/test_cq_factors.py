"""Naming a 2-group's cyclic and quaternion factors from its invariants: the
reader behind both the characteristic-group classifier and the Rees route."""

import random

import pytest

from superext import twin
from superext.engine import decompose_cq_type, type_string
from superext.groups import (
    FiniteGroup,
    direct_product,
    make_cq_product,
    make_cyclic,
    make_generalized_quaternion,
    parse_spec,
)


def cq_types(max_bits):
    """Every {tag: count} of C_{2^k} (k >= 1) and Q_{2^k} (k >= 3) factors
    whose product has order at most 2^max_bits, the trivial type included."""
    types = [{}]
    for fam, low in (("C", 1), ("Q", 3)):
        for k in range(low, max_bits + 1):
            types = [
                {**q, (fam, k): c} if c else q
                for q in types
                for c in range((max_bits - sum(j * n for (_, j), n in q.items())) // k + 1)
            ]
    return types


@pytest.mark.parametrize("q", cq_types(6), ids=lambda q: type_string(0, q))
def test_every_cq_product_up_to_order_64_reads_back(q, monkeypatch, relabelled):
    searches = []
    search = twin.group_isomorphic
    monkeypatch.setattr(twin, "group_isomorphic", lambda a, b: searches.append(b) or search(a, b))
    h, _ = relabelled(make_cq_product(q), random.Random(type_string(0, q)))
    assert decompose_cq_type(h) == q
    # abelian types come straight from element orders; others need one certificate
    assert len(searches) == (0 if all(fam == "C" for fam, _ in q) else 1)


@pytest.mark.parametrize("spec,q", [("Q8xC4", {("Q", 3): 1, ("C", 2): 1}), ("C2xQ16", {("C", 1): 1, ("Q", 4): 1})])
def test_derived_subgroup_and_centre_are_read_without_building_them(spec, q, monkeypatch, relabelled):
    h, _ = relabelled(parse_spec(spec), random.Random(spec))

    def refuse(*args):
        raise AssertionError("a subgroup group was built")

    monkeypatch.setattr(twin, "FiniteGroup", refuse)
    assert decompose_cq_type(h) == q


@pytest.mark.parametrize("spec", ["D8", "D16", "C2xD8", "C4xD8"])
def test_non_cq_two_groups_are_rejected(spec):
    with pytest.raises(RuntimeError, match="no cyclic/quaternion factorization"):
        decompose_cq_type(parse_spec(spec))


def test_abelian_order_128_beyond_the_product_cap():
    h = FiniteGroup([[i ^ j for j in range(128)] for i in range(128)])
    assert decompose_cq_type(h) == {("C", 1): 7}


def test_non_abelian_order_128_beyond_the_product_cap():
    # Q8 x Q8 (major) times C2 (minor): not the model's element order
    t = parse_spec("Q8xQ8").table
    h = FiniteGroup([[2 * t[i >> 1][j >> 1] + ((i ^ j) & 1) for j in range(128)] for i in range(128)])
    assert decompose_cq_type(h) == {("Q", 3): 2, ("C", 1): 1}


def test_cq_product_lists_factors_as_chained_direct_products():
    model = make_cq_product({("C", 1): 1, ("Q", 3): 1})
    assert model.table == direct_product(make_cyclic(2), make_generalized_quaternion(8)).table
