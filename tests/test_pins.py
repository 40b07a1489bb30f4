"""Byte-level pins of constructor tables and of the projection idempotent.

Golden CLI outputs print masks, so element order is part of the contract:
each family of constructed groups is pinned by one sha256 of its
(table, names) pairs, and the projection idempotent by its signature bits.
"""

import hashlib
import json

import pytest

from superext.engine import build_projection_idempotent, catalog_specs, min_ideal_membership
from superext.groups import (
    FiniteGroup,
    direct_product,
    make_alternating4,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    parse_spec,
    spec_order,
)


def _products():
    c2 = make_cyclic(2)
    unnamed = FiniteGroup(make_cyclic(3).table)
    return [
        direct_product(make_dihedral(6), c2),
        direct_product(c2, make_generalized_quaternion(8)),
        direct_product(make_alternating4(), c2),
        direct_product(make_cyclic(3), make_dihedral(8)),
        direct_product(make_dihedral(4), make_cyclic(4)),
        direct_product(unnamed, c2),
    ]


FAMILIES = {
    "dihedral": (
        lambda: [make_dihedral(n) for n in range(2, 65, 2)],
        "7d19c08735b47ddf40ea6ccb2d158ce73412099273922fe01f85aa3da6ebd055",
    ),
    "quaternion": (
        lambda: [make_generalized_quaternion(n) for n in (8, 16, 32, 64)],
        "5f78b362284d1131b0af49ebaaa3076541b0fde71345bb588a08db6be7eb7311",
    ),
    "alternating4": (
        lambda: [make_alternating4()],
        "e4e8ea411934c555845325c73786d80dfa6d7176898348803a5457efdb5d7441",
    ),
    "products": (
        _products,
        "56062dcdc878a8fa8483f3325b2a46a878454306cb98652674bfdee1ac1625ce",
    ),
}


def _digest(groups) -> str:
    h = hashlib.sha256()
    for g in groups:
        h.update(json.dumps([g.table, g.names]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_constructor_tables_pinned(family):
    build, expected = FAMILIES[family]
    assert _digest(build()) == expected


PROJECTION_BITS = {
    "C1": 0x0,
    "C2": 0x2,
    "C3": 0x8,
    "C4": 0xA8,
    "C5": 0xE880,
    "C6": 0xFAE08880,
    "C2xC2": 0xA8,
    "D6": 0xE8E8E880,
}


def test_projection_idempotent_bits_pinned():
    got = {spec: build_projection_idempotent(parse_spec(spec)).bits for spec in catalog_specs(6)}
    assert got == PROJECTION_BITS


# sha256 of json.dumps({spec: format(bits, "x")}, sort_keys=True) over the
# 13 catalog groups of orders 7-12, taken from the construction that
# scanned Fix- per call, with only its order-6 cap lifted.  D8 and A4 carry
# selector twin sets to conjugate cogroups, which no group of order <= 7 needs.
PROJECTION_7_TO_12_DIGEST = "5b7b5a0e80ae0ecc1f158ca0d316fcc4c43a5a100af9fe2e6f7e6f42cb81ba92"


def test_projection_idempotent_orders_7_to_12_pinned():
    specs = [s for s in catalog_specs(12) if spec_order(s) >= 7]
    assert len(specs) == 13 and {"D8", "A4"} <= set(specs)
    got = {}
    for spec in specs:
        g = parse_spec(spec)
        sig = build_projection_idempotent(g)
        assert min_ideal_membership(g, sig), spec
        got[spec] = format(sig.bits, "x")
    assert hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest() == PROJECTION_7_TO_12_DIGEST


# The same digest over D14, D16, Q16 and C2xC2xC2xC2, taken from the
# construction that sorted every non-twin mask for a greedy linked family.
PROJECTION_14_TO_16_DIGEST = "8ccb6d6e4e52824c7fd66e98e17eacc7ad5e933f32608977a6365b596c89590b"


def test_projection_idempotent_orders_14_to_16_pinned():
    got = {}
    for spec in ("D14", "D16", "Q16", "C2xC2xC2xC2"):
        g = parse_spec(spec)
        sig = build_projection_idempotent(g)
        assert min_ideal_membership(g, sig), spec
        got[spec] = format(sig.bits, "x")
    assert hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest() == PROJECTION_14_TO_16_DIGEST


def test_projection_idempotent_refuses_order_above_the_pipeline_cap():
    with pytest.raises(ValueError, match="capped at order 16"):
        build_projection_idempotent(make_cyclic(32))
