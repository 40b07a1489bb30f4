"""The Phi product kernel against independent definitions: phi_map mask by
mask, phi_table system by system, and circ pair by pair."""

import random

import pytest

from superext.cli import parse_spec
from superext.engine import build_projection_idempotent, lambda_semigroup
from superext import setfam
from superext.groups import InvariantError, make_cyclic
from superext.setfam import (
    circ,
    enumerate_mls,
    indexed_circ,
    pair_row,
    phi,
    phi_map,
    phi_table,
    phi_tables,
    principal_ultrafilter,
)

ORDERS_1_TO_6 = ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6"]


# -- Phi rows ----------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ORDERS_1_TO_6)
def test_phi_table_matches_phi_map_on_every_system(spec):
    for sig in enumerate_mls(parse_spec(spec)):
        assert phi_table(sig) == phi_map(sig)


def test_phi_table_matches_phi_map_on_seeded_c7_systems(random_mls):
    # sampled rather than enumerated: all 1,422,564 systems of C7 take tens of seconds
    g = make_cyclic(7)
    rng = random.Random(7)
    sigs = [random_mls(g, rng) for _ in range(200)]
    assert len({s.bits for s in sigs}) > 100
    for sig in sigs:
        assert phi_table(sig) == phi_map(sig)


# -- Phi tables of all systems at once ---------------------------------------------------------


def assert_batch_matches_phi_table(g):
    sigs = enumerate_mls(g)
    tables = phi_tables(g, sigs.bits)
    assert len(tables) == len(sigs)
    for sig, t in zip(sigs, tables):
        assert type(t) is bytes and tuple(t) == phi_table(sig), sig.bits


@pytest.mark.parametrize("spec", ORDERS_1_TO_6)
def test_phi_tables_match_phi_table_on_every_system(spec):
    # C1: one system, whose pair row is one byte
    assert_batch_matches_phi_table(parse_spec(spec))


@pytest.mark.parametrize("spec,seed", [("C6", 1), ("C6", 2), ("D6", 1), ("D6", 2)])
def test_phi_tables_match_phi_table_on_relabelled_groups(spec, seed, relabelled):
    assert_batch_matches_phi_table(relabelled(parse_spec(spec), random.Random(seed))[0])


@pytest.mark.parametrize("spec,seed", [("C7", None), ("C8", None), ("Q8", None), ("D8", 5)],
                         ids=["C7", "C8", "Q8", "D8-relabelled"])
def test_phi_tables_match_phi_table_on_seeded_order_7_and_8_systems(spec, seed, relabelled, random_mls):
    # 8- and 16-byte packing blocks, and at order 8 a 256-entry shift row with no padding;
    # a non-abelian group tells a left shift x*A from a right shift A*x
    g = parse_spec(spec) if seed is None else relabelled(parse_spec(spec), random.Random(seed))[0]
    rng = random.Random(spec)
    sigs = [random_mls(g, rng) for _ in range(40)]
    tables = phi_tables(g, [s.bits for s in sigs])
    for sig, t in zip(sigs, tables):
        assert tuple(t) == phi_table(sig), sig.bits


def test_phi_tables_refuse_order_9():
    with pytest.raises(ValueError, match="order 9"):
        phi_tables(make_cyclic(9), [0])


# -- lambda products -----------------------------------------------------------------------


def _assert_mul_matches_circ(sem, pairs):
    index = {s.bits: i for i, s in enumerate(sem.labels)}
    for i, j in pairs:
        assert sem.mul(i, j) == index[circ(sem.labels[i], sem.labels[j]).bits], (i, j)


@pytest.mark.parametrize("spec", ["C1", "C2", "C3", "C4", "C5", "C2xC2"])
def test_lambda_mul_matches_circ_on_all_pairs(spec):
    # C1 has a one-entry pair row: the single-index gather case
    sem = lambda_semigroup(parse_spec(spec))
    _assert_mul_matches_circ(sem, [(i, j) for i in range(sem.size) for j in range(sem.size)])


@pytest.mark.parametrize("spec,seed", [("C6", None), ("D6", None), ("D6", 3)], ids=["C6", "D6", "D6-relabelled"])
def test_lambda_mul_matches_circ_on_seeded_pairs(spec, seed, relabelled):
    g = parse_spec(spec) if seed is None else relabelled(parse_spec(spec), random.Random(seed))[0]
    sem = lambda_semigroup(g)
    rng = random.Random(spec)
    _assert_mul_matches_circ(sem, [(rng.randrange(sem.size), rng.randrange(sem.size)) for _ in range(2000)])


def test_lambda_build_uses_no_per_system_table(monkeypatch):
    def refuse(sig):
        raise AssertionError("a Phi table was built one system at a time")

    monkeypatch.setattr(setfam, "pair_row", refuse)
    monkeypatch.setattr(setfam, "phi_table", refuse)
    sem = lambda_semigroup(make_cyclic(6))
    pairs = [(0, 0), (1, 2), (17, 2645), (2645, 17), (1000, 1000)]
    products = [sem.mul(i, j) for i, j in pairs]
    monkeypatch.undo()
    _assert_mul_matches_circ(sem, pairs)
    assert products == [sem.mul(i, j) for i, j in pairs]


@pytest.mark.parametrize("spec", ["C7", "C8", "D8", "Q8", "C2xC2xC2"])
def test_indexed_circ_multiplies_principal_ultrafilters_like_the_group(spec):
    # the translate table's edges: 128 real entries at order 7, no padding at order 8
    g = parse_spec(spec)
    ups = [principal_ultrafilter(g, x).bits for x in range(g.order)]
    bits = sorted(ups)
    of = [bits.index(b) for b in ups]
    mult = indexed_circ(g, bits)
    for x in range(g.order):
        for y in range(g.order):
            assert mult(of[x], of[y]) == of[g.table[x][y]], (x, y)


def test_indexed_circ_refuses_a_product_outside_the_list():
    g = parse_spec("C4")
    mult = indexed_circ(g, enumerate_mls(g).bits[:3])
    with pytest.raises(KeyError):
        for i in range(3):
            for j in range(3):
                mult(i, j)
    indexed_circ(g, [])  # an empty list still builds its (empty) tables


def test_indexed_circ_refuses_a_repeated_signature():
    # equal pair rows would leave the first copy unreachable by any product
    g = parse_spec("C4")
    bits = enumerate_mls(g).bits
    with pytest.raises(InvariantError, match="equal maps"):
        indexed_circ(g, bits + bits[:1])


# -- pair rows with 16-bit fields (orders 9 to 16) --------------------------------------------


@pytest.mark.parametrize("spec", ["C9", "D10", "C12"])
def test_pair_row_matches_phi_on_principal_ultrafilters(spec):
    g = parse_spec(spec)
    half = 1 << (g.order - 1)
    for x in range(g.order):
        sig = principal_ultrafilter(g, x)
        assert pair_row(sig) == tuple(phi(sig, p) for p in range(half)), x


def test_pair_row_matches_phi_on_d16_projection():
    g = parse_spec("D16")
    sig = build_projection_idempotent(g)
    row = pair_row(sig)
    assert len(row) == 1 << 15
    rng = random.Random(16)
    for p in (rng.randrange(1 << 15) for _ in range(2000)):
        assert row[p] == phi(sig, p), p
