"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 1 includes the A4 row of the reference table.  The engine's
first-principles value for A4 (one conjugacy orbit of maximal 2-cogroups,
hence 2^2 x C2) differs from the reference row (2^6 x C2^3, obtained by
counting the three conjugate cogroups separately even though equivariance
ties them together), so that sub-assertion fails and is left failing on
purpose rather than weakened; the README covers the analysis.
"""

import time

from superext.cli import parse_spec
from superext.engine import (
    REFERENCE_ROWS,
    analyze_structural,
    catalog_specs,
    cross_check,
    lambda_semigroup,
    min_ideal_membership,
    reference_reports,
    strip_left_zero_factor,
)
from superext.groups import (
    FgAbelianPresentation,
    fg_abelian_q,
    group_isomorphic,
    hom_count_to_cyclic2,
    is_subgroup_mask,
    make_cyclic,
    mask_elements,
)
from superext.semigroups import (
    end_tk,
    end_tk_min_ideal_expected,
    expected_unit_group_size,
    idempotent_image_orbits,
    idempotents,
    maximal_subgroup,
    minimal_ideal,
    minimal_left_ideal,
    rees_decompose,
)
from superext.setfam import FamilyOfSets, circ, enumerate_mls, is_maximal_linked, phi
from superext.twin import (
    characteristic_group,
    fix_operators,
    is_trivially_twinic,
    maximal_2cogroups,
)

ORDER_LE_6 = ["C1", "C2", "C3", "C4", "C5", "C6", "C2xC2", "D6"]


def report_line(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}" + (f" ({detail})" if detail else ""))


def test_criterion_01_reference_table():
    t0 = time.perf_counter()
    rows = dict(reference_reports())
    elapsed = time.perf_counter() - t0
    failures = []
    for spec, ref_idem, ref_ideal in REFERENCE_ROWS:
        rep = rows[spec]
        ref_subgroup = strip_left_zero_factor(ref_ideal)
        if spec == "D8":
            # group factor and left-zero factor must match the reference L
            # column; the idempotent count is known to disagree and must be
            # emitted from first principles together with an annotation
            if rep.min_left_ideal_type != ref_ideal or rep.max_subgroup_type != ref_subgroup:
                failures.append(f"{spec}: {rep.min_left_ideal_type} != {ref_ideal}")
            if rep.idempotents_per_min_left_ideal != 4 or not any(
                "discrepancy" in n and "idempotent" in n for n in rep.notes
            ):
                failures.append(f"{spec}: idempotent discrepancy not flagged")
            continue
        if rep.min_left_ideal_type != ref_ideal:
            failures.append(
                f"{spec}: minimal left ideal {rep.min_left_ideal_type} != reference {ref_ideal}"
            )
        if rep.max_subgroup_type != ref_subgroup:
            failures.append(
                f"{spec}: maximal subgroup {rep.max_subgroup_type} != reference {ref_subgroup}"
            )
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    report_line(1, not failures, "; ".join(failures) or f"{elapsed:.2f}s")
    assert not failures, "; ".join(failures)


def test_criterion_02_brute_oracle_agreement():
    failures = []
    slowest = 0.0
    for spec in ORDER_LE_6:
        g = parse_spec(spec)
        t0 = time.perf_counter()
        check = cross_check(g, spec)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        if check.verdict != "agree" or not check.isomorphism_certified:
            failures.append(f"{spec}: {check.verdict}")
        if g.order == 6 and elapsed > 300.0:
            failures.append(f"{spec}: {elapsed:.0f}s exceeds the 5 minute budget")
    report_line(2, not failures, "; ".join(failures) or f"slowest group {slowest:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_03_mls_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}
    failures = []
    for n, count in expected.items():
        g = make_cyclic(n)  # fresh object: no cached enumeration
        t0 = time.perf_counter()
        first = [s.bits for s in enumerate_mls(g, order="skew_first")]
        elapsed = time.perf_counter() - t0
        g2 = make_cyclic(n)
        second = [s.bits for s in enumerate_mls(g2, order="balanced_first")]
        if len(first) != count:
            failures.append(f"n={n}: count {len(first)} != {count}")
        if first != second:
            failures.append(f"n={n}: enumeration orders disagree")
        budget = 60.0 if n == 6 else 1.0
        if elapsed > budget:
            failures.append(f"n={n}: {elapsed:.2f}s exceeds {budget}s")
    report_line(3, not failures, "; ".join(failures) or "counts 1,2,4,12,81,2646")
    assert not failures, "; ".join(failures)


def test_criterion_04_phi_isomorphism_suite():
    violations = 0
    for spec in ("C1", "C2", "C3", "C4", "C2xC2"):
        g = parse_spec(spec)
        full = g.full_mask()
        systems = enumerate_mls(g)
        # bijective homomorphism over every pair and subset
        for a in systems:
            for b in systems:
                ab = circ(a, b)
                for s in range(full + 1):
                    if phi(ab, s) != phi(a, phi(b, s)):
                        violations += 1
        maps = {tuple(phi(s, m) for m in range(full + 1)) for s in systems}
        if len(maps) != len(systems):
            violations += 1
        # image = all monotone symmetric function representations, and the
        # maximal-linked <-> monotone+symmetric equivalence over families
        kept = set()
        for fam_bits in range(1 << (full + 1)):
            members = frozenset(m for m in range(full + 1) if (fam_bits >> m) & 1)
            fam = FamilyOfSets(g, members)
            vals = tuple(phi(fam, m) for m in range(full + 1))
            symmetric = all(vals[m ^ full] == vals[m] ^ full for m in range(full + 1))
            monotone = True
            if symmetric:
                for m in range(full + 1):
                    b = m
                    while monotone:
                        b = (b + 1) | m
                        if b > full:
                            break
                        if vals[m] & vals[b] != vals[m]:
                            monotone = False
            ok = symmetric and monotone
            if ok != is_maximal_linked(fam):
                violations += 1
            if ok:
                kept.add(vals)
        if kept != maps:
            violations += 1
    report_line(4, violations == 0, f"{violations} violations")
    assert violations == 0


def test_criterion_05_twin_and_cogroup_suite():
    failures = []
    for spec in catalog_specs(8):
        g = parse_spec(spec)
        for a in range(g.full_mask() + 1):
            fix, fixm, fixpm = fix_operators(g, a)
            if not is_subgroup_mask(g, fixpm):
                failures.append(f"{spec}: Fix+-({a}) not a subgroup")
            if (fixm != 0) != (2 * fix.bit_count() == fixpm.bit_count()):
                failures.append(f"{spec}: twin index-2 criterion fails at {a}")
            for x in range(g.order):
                expected = 0
                for z in mask_elements(fixm):
                    expected |= 1 << g.conj(x, z)
                if fix_operators(g, g.shift_mask(x, a))[1] != expected:
                    failures.append(f"{spec}: Fix- conjugation fails at ({x},{a})")
        if failures:
            break
    for spec in catalog_specs(16):
        g = parse_spec(spec)
        for k in maximal_2cogroups(g):
            h, tag = characteristic_group(k)
            if h.order & (h.order - 1):
                failures.append(f"{spec}: characteristic group not a 2-group")
            if h.order > 1 and sum(1 for o in h.element_orders if o == 2) != 1:
                failures.append(f"{spec}: characteristic group has several involutions")
            if tag[0] not in ("C", "Q"):
                failures.append(f"{spec}: unclassified characteristic group")
    report_line(5, not failures, "; ".join(failures[:3]) or "orders <=8 exhaustive, <=16 classified")
    assert not failures, "; ".join(failures[:5])


def test_criterion_06_q_count_consistency():
    failures = []
    for spec in catalog_specs(16):
        g = parse_spec(spec)
        if not g.is_abelian:
            continue
        census = analyze_structural(g, spec).q_dict()
        formula = {}
        for k in range(1, 6):
            q = (hom_count_to_cyclic2(g, k) - hom_count_to_cyclic2(g, k - 1)) // 2 ** (k - 1)
            if q:
                formula[("C", k)] = q
        if census != formula:
            failures.append(f"{spec}: census {census} != formula {formula}")
    specific = {
        ("C2xC4", ("C", 1)): 3,
        ("C2xC4", ("C", 2)): 2,
        ("Q8", ("Q", 3)): 1,
        ("Q8", ("C", 1)): 3,
    }
    for (spec, tag), want in specific.items():
        got = analyze_structural(parse_spec(spec), spec).q_dict().get(tag, 0)
        if got != want:
            failures.append(f"q({spec},{tag}) = {got} != {want}")
    report_line(6, not failures, "; ".join(failures) or "orbit census = hom formula")
    assert not failures, "; ".join(failures)


def test_criterion_07_end_tk_suite():
    failures = []
    for spec in catalog_specs(8):
        g = parse_spec(spec)
        for k in maximal_2cogroups(g):
            sem, tk = end_tk(k)
            r = tk.orbit_count
            h_char, _ = characteristic_group(k)
            if sem.size != h_char.order**r * r**r:
                failures.append(f"{spec}: |End| formula fails")
            if minimal_ideal(sem) != end_tk_min_ideal_expected(sem, tk):
                failures.append(f"{spec}: minimal ideal characterization fails")
            ideal = minimal_left_ideal(sem)
            rees = rees_decompose(sem, ideal)
            if rees.left_zero_count != r or not group_isomorphic(rees.group, h_char):
                failures.append(f"{spec}: minimal left ideal shape fails")
            if len(tk.twin_masks) <= 16:
                for e in idempotents(sem):
                    s = idempotent_image_orbits(sem, tk, e)
                    h_e, _ = maximal_subgroup(sem, e)
                    if h_e.order != expected_unit_group_size(tk, s):
                        failures.append(f"{spec}: unit group size fails at idempotent {e}")
    report_line(7, not failures, "; ".join(failures[:3]) or "all maximal cogroups through order 8")
    assert not failures, "; ".join(failures[:5])


def test_criterion_08_minimal_ideal_membership():
    failures = []
    for spec in ("C1", "C2", "C3", "C4", "C2xC2"):
        g = parse_spec(spec)
        sem = lambda_semigroup(g)
        kernel = {sem.labels[i].bits for i in minimal_ideal(sem)}
        for sig in enumerate_mls(g):
            if min_ideal_membership(g, sig) != (sig.bits in kernel):
                failures.append(f"{spec}: disagreement at signature {sig.bits:#x}")
    report_line(8, not failures, "; ".join(failures) or "matches brute membership through order 4")
    assert not failures, "; ".join(failures)


def test_criterion_09_odd_reduction():
    failures = []
    c6 = analyze_structural(parse_spec("C6"), "C6")
    c2 = analyze_structural(parse_spec("C2"), "C2")
    if not (c6.min_left_ideal_type == c2.min_left_ideal_type == "C2"):
        failures.append("type of C6 and C2 differ")
    c12 = analyze_structural(parse_spec("C12"), "C12")
    c4 = analyze_structural(parse_spec("C4"), "C4")
    if c12.min_left_ideal_type != c4.min_left_ideal_type:
        failures.append("type of C12 and C4 differ")
    z = FgAbelianPresentation(free_rank=1)
    for k in range(1, 11):
        if fg_abelian_q(z, k) != 1:
            failures.append(f"q(Z, 2^{k}) != 1")
    report_line(9, not failures, "; ".join(failures) or "C6=C2, C12=C4, q(Z,.)=1")
    assert not failures, "; ".join(failures)


def test_criterion_10_twinic_checker():
    failures = []
    for spec in catalog_specs(16):
        g = parse_spec(spec)
        t0 = time.perf_counter()
        res = is_trivially_twinic(g)
        elapsed = time.perf_counter() - t0
        if not res.trivial:
            failures.append(f"{spec}: witness {res.witness}")
        if elapsed > 1.0:
            failures.append(f"{spec}: {elapsed:.2f}s exceeds 1s")
    report_line(10, not failures, "; ".join(failures) or "all catalog groups through order 16")
    assert not failures, "; ".join(failures)
