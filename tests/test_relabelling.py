"""Reports do not depend on how a group's elements are named: each catalog group,
renamed at random and loaded as a Cayley document, gets the same report."""

import random

import pytest

from superext.cli import parse_spec
from superext.engine import analyze_structural, catalog_specs, cross_check
from superext.groups import group_isomorphic


def canonical(doc, g, to_g=None):
    """The report without its name, each summand's K replaced by K's conjugacy
    orbit in g's labels: K is a set of elements, so it is the one field that
    names them, and the orbit's representative is a choice."""
    out = dict(doc, group=None)
    summands = []
    for s in doc["m_summands"]:
        k = int(s["K"], 16)
        if to_g is not None:
            k = sum(1 << to_g[y] for y in range(g.order) if k >> y & 1)
        orbit = sorted({g.conj_mask(x, k) for x in range(g.order)})
        summands.append(sorted(dict(s, K=orbit).items()))
    out["m_summands"] = sorted(summands)
    return out


@pytest.mark.parametrize("spec", catalog_specs())
def test_structural_report_is_relabelling_invariant(spec, relabelled):
    g = parse_spec(spec)
    want = canonical(analyze_structural(g, spec).to_json(), g)
    rng = random.Random(spec)
    for _ in range(5):
        h, to_g = relabelled(g, rng)
        assert canonical(analyze_structural(h, spec).to_json(), g, to_g) == want


@pytest.mark.parametrize("spec", catalog_specs(max_order=6))
def test_brute_report_is_relabelling_invariant(spec, relabelled):
    g = parse_spec(spec)
    want = dict(cross_check(g, spec).brute.to_json(), group=None)
    rng = random.Random(spec)
    for _ in range(2):
        h, _ = relabelled(g, rng)
        assert dict(cross_check(h, spec).brute.to_json(), group=None) == want


def test_isomorphism_holds_exactly_within_a_spec(relabelled):
    groups = {spec: parse_spec(spec) for spec in catalog_specs()}
    for a, g in groups.items():
        for b, other in groups.items():
            if g.order == other.order:
                h, _ = relabelled(other, random.Random(a + b))
                assert group_isomorphic(g, h) is (a == b), (a, b)
