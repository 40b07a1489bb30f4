"""From a finite group to the type of its minimal left ideals.

Two independent routes: the structural one (maximal 2-cogroup orbits,
characteristic groups, orbit counts) runs for any group of order <= 16;
the brute one materializes the whole superextension semigroup and reads
the answer off a Rees decomposition, up to order 6.  cross_check runs both
and certifies agreement with an explicit isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .groups import (
    FiniteGroup,
    InvariantError,
    MAX_PIPELINE_ORDER,
    make_cq_product,
    parse_spec,
    spec_order,
    subtable,
)
from .setfam import (
    MAX_ENUM_ORDER, MlsSignature, circ, enumerate_mls, indexed_circ, phi_inverse, phi_table, shift_orbits
)
from .twin import (
    CogroupOrbit,
    Tag,
    cogroup_orbits,
    coset_halves,
    cq_factors,
    fix_operators,
    q_counts,
    tag_str,
    twin_sets_for,
)
from .semigroups import (
    FiniteSemigroup,
    minimal_left_ideal,
    rees_decompose,
    semigroup_isomorphic,
)


# -- type expressions ---------------------------------------------------------------


def type_string(m: int, q: dict[Tag, int]) -> str:
    """Normal form: left-zero factor, then C factors, then Q factors."""
    parts = []
    if m == 1:
        parts.append("2")
    elif m > 1:
        parts.append(f"2^{m}")
    for fam in ("C", "Q"):
        for tag, count in sorted(kv for kv in q.items() if kv[0][0] == fam):
            base = tag_str(tag)
            parts.append(base if count == 1 else f"{base}^{count}")
    return " x ".join(parts) if parts else "1"


def strip_left_zero_factor(type_str: str) -> str:
    parts = [p for p in type_str.split(" x ") if not (p == "2" or p.startswith("2^"))]
    return " x ".join(parts) if parts else "1"


# -- reports ---------------------------------------------------------------------------


def _m_summand(orbit: CogroupOrbit) -> dict:
    """One orbit's share of m: |T_K| = 2^|X/K+-| twin sets, free under H = Stab(K)/KK."""
    idx, e = orbit.representative.kpm_index(), orbit.characteristic_type[1]
    return {
        "K": format(orbit.representative.members, "x"),
        "orbit_size_T": 1 << idx - e,
        "x_mod_kpm": idx,
        "h_order": 1 << e,
        "t_size": 1 << idx,
        "classification": tag_str(orbit.characteristic_type),
    }


@dataclass(frozen=True)
class StructureReport:
    group_name: str
    q_vector: tuple[tuple[Tag, int], ...] = ()
    left_zero_exponent: int = 0
    per_orbit: tuple[CogroupOrbit, ...] = ()
    provenance: str = "structural"
    notes: tuple[str, ...] = ()

    def q_dict(self) -> dict[Tag, int]:
        return dict(self.q_vector)

    @property
    def min_left_ideal_type(self) -> str:
        return type_string(self.left_zero_exponent, self.q_dict())

    @property
    def max_subgroup_type(self) -> str:
        return type_string(0, self.q_dict())

    @property
    def idempotents_per_min_left_ideal(self) -> int:
        return 1 << self.left_zero_exponent

    def to_json(self) -> dict:
        return {
            "group": self.group_name,
            "q": {tag_str(t): c for t, c in self.q_vector},
            "m": self.left_zero_exponent,
            "m_summands": [_m_summand(o) for o in self.per_orbit],
            "min_left_ideal": self.min_left_ideal_type,
            "max_subgroup": self.max_subgroup_type,
            "idempotents": self.idempotents_per_min_left_ideal,
            "provenance": self.provenance,
            "notes": list(self.notes),
        }


# -- structural analysis ------------------------------------------------------------------


def analyze_structural(g: FiniteGroup, name: str = "?") -> StructureReport:
    if g.order > MAX_PIPELINE_ORDER:
        raise ValueError(f"structural analysis capped at order {MAX_PIPELINE_ORDER}")
    per_orbit = tuple(cogroup_orbits(g))
    m = 0
    for orbit in per_orbit:
        k = orbit.representative
        idx, e = k.kpm_index(), orbit.characteristic_type[1]
        if e > idx:
            raise InvariantError(f"orbit space of size {1 << idx}/{1 << e} is not a power of two")
        if 1 << e != k.stab.bit_count() // k.kk.bit_count():
            raise InvariantError("characteristic type disagrees with |Stab(K)/KK|")
        m += idx - e
    return StructureReport(name, tuple(sorted(q_counts(g).items())), m, per_orbit=per_orbit)


# -- brute-force analysis ---------------------------------------------------------------


def lambda_semigroup(g: FiniteGroup, budget: int | None = None) -> FiniteSemigroup:
    """The whole superextension as a finite semigroup (orders <= 6),
    multiplied through Phi: the tables of all systems come from one
    column-sliced pass (setfam.phi_tables) over the signatures packed into
    one int, computed at one mask per left-shift orbit of P(X) and carried
    to the rest of the orbit by equivariance.  A product composes a's table
    with b's pair row in one bytes.translate, as phi_tables stops at order 8."""
    if g.order > MAX_ENUM_ORDER:
        # lambda(C7) alone has 1,422,564 elements, each with a Phi table
        raise ValueError(f"the superextension semigroup is built up to order {MAX_ENUM_ORDER}")
    sigs = enumerate_mls(g, budget=budget)
    return FiniteSemigroup(len(sigs), indexed_circ(g, sigs.bits), labels=sigs)


def decompose_cq_type(h: FiniteGroup) -> dict[Tag, int]:
    """Express a 2-group as a product of cyclic and quaternion factors.

    A function of its own, not an alias of twin.cq_factors: perfbench times
    the Rees route's reading under this name."""
    return cq_factors(h)


# -- cross-checking the two routes ---------------------------------------------------------


def build_type_semigroup(m: int, q: dict[Tag, int]) -> FiniteSemigroup:
    """(left zeros of size 2^m) x (product of the C/Q factors), explicitly:
    element z*|H| + h is the pair (z, h)."""
    h = make_cq_product(q)
    n, t = h.order, h.table
    return FiniteSemigroup((1 << m) * n, lambda i, j: i - i % n + t[i % n][j % n])


@dataclass(frozen=True)
class CrossCheck:
    verdict: str  # "agree" | "disagree"
    structural: StructureReport
    brute: StructureReport
    merged: StructureReport
    semigroup: FiniteSemigroup  # the lambda(g) the brute route built
    isomorphism_certified: bool = False


def cross_check(g: FiniteGroup, name: str = "?", budget: int | None = None) -> CrossCheck:
    """The brute route's entry point: proves lambda(g)'s minimal left ideal L once; the
    Rees step (L is left simple) and the isomorphism certificate read one table of L."""
    structural = analyze_structural(g, name)
    sem = lambda_semigroup(g, budget=budget)
    ideal = minimal_left_ideal(sem)
    brute_ideal = FiniteSemigroup.from_table(subtable(sem.mul, sorted(ideal)))
    rees = rees_decompose(brute_ideal, frozenset(range(brute_ideal.size)))
    count = rees.left_zero_count
    if count & (count - 1):
        raise InvariantError("idempotent count of a minimal left ideal is not a power of two")
    q = decompose_cq_type(rees.group)
    brute = StructureReport(
        name, tuple(sorted(q.items())), count.bit_length() - 1, provenance="brute",
        notes=(f"superextension size {sem.size}, minimal left ideal size {len(ideal)}",),
    )
    model = build_type_semigroup(structural.left_zero_exponent, structural.q_dict())
    iso = semigroup_isomorphic(brute_ideal, model)
    # type_string is injective in (m, q) and the maximal subgroup's type is q's alone
    agree = structural.min_left_ideal_type == brute.min_left_ideal_type and iso is True
    verdict = "agree" if agree else "disagree"
    notes = structural.notes
    if iso is None:
        notes += ("isomorphism search hit its budget: verdict indeterminate, reported as disagree",)
    merged = replace(
        structural,
        provenance=f"both({verdict})",
        notes=notes,
    )
    return CrossCheck(
        verdict=verdict,
        structural=structural,
        brute=brute,
        merged=merged,
        semigroup=sem,
        isomorphism_certified=iso is True,
    )


# -- minimal-ideal membership test -----------------------------------------------------------


def min_ideal_membership(g: FiniteGroup, system: MlsSignature) -> bool:
    """Two-condition test for membership in the minimal ideal of the superextension.

    (1) the image of the maximal-cogroup twin family is a minimal covering
    family (meets each conjugacy class of twin families in one shift orbit);
    (2) every other value is empty, full, or already in that image.

    Phi f of a system is equivariant and symmetric, so x*a = X\\a gives
    x*f(a) = X\\f(a): Fix-(a) lies in Fix-(f(a)).  A non-empty Fix- is a
    2-cogroup, so for every maximal K, f maps T_K into T_K.  The image thus
    meets every class, and only in twin sets of maximal 2-cogroups, so (1)
    reduces to the one-shift-orbit test.  The twin sets of x*K*x^-1 are x*T_K.
    """
    values = phi_table(system)
    allowed = {0, g.full_mask()}
    for orbit in cogroup_orbits(g):
        twins = twin_sets_for(orbit.representative).twin_masks
        in_class = {values[g.shift_mask(x, a)] for x in orbit.conjugators for a in twins}
        rep = min(in_class)
        if in_class != {g.shift_mask(x, rep) for x in range(g.order)}:
            return False
        allowed |= in_class
    return allowed.issuperset(values)


# -- an explicit idempotent hitting the selector twin family --------------------------------


def build_projection_idempotent(g: FiniteGroup) -> MlsSignature:
    """Constructs an idempotent of the superextension concretely (orders <= 16).

    Identity on the selector family: the least twin set over each orbit
    representative, the smaller half of each twin.coset_halves pair, carried to
    each conjugate K by its transport element in CogroupOrbit.conjugators, the
    least x with x*rep*x^-1 = K.  Any other twin set a collapses equivariantly
    onto the selector twin set of the smallest maximal 2-cogroup containing
    Fix-(a); a non-twin set gets X when it has more than half the elements and
    empty when it has fewer, and of the two shift orbits at exactly half, the
    one with the smaller least mask gets X.
    The map is certified by setfam.phi_inverse, the representation
    theorem's inverse, and then checked to be idempotent.  Any failure is
    a hard error.
    """
    if g.order > MAX_PIPELINE_ORDER:
        raise ValueError(f"projection idempotent construction capped at order {MAX_PIPELINE_ORDER}")
    full = g.full_mask()
    n = g.order
    target_of = {}  # maximal 2-cogroup -> its selector twin set
    for orbit in cogroup_orbits(g):
        twin = sum(map(min, coset_halves(orbit.representative)))
        for k, x in zip(orbit.members, orbit.conjugators):
            target_of[k.members] = g.shift_mask(x, twin)
    maximal = sorted(target_of)

    e_map = [0] * (full + 1)
    # Twin sets collapse their X-orbit onto the selector family; the other
    # sets take the size rule above.  At n/2 the orbit of X\a is not a's
    # (xa = X\a would make a a twin set), so exactly one of the two gets X,
    # and the sets that get X are linked: disjoint ones would be some a of
    # n/2 elements and X\a.
    for orbit in shift_orbits(g):
        a = orbit[0]
        if fixm := fix_operators(g, a)[1]:
            target = target_of[next(k for k in maximal if k & fixm == fixm)]
            if target in orbit:
                target = a  # a lies in the selector orbit itself: keep the identity there
            for x in range(n):
                e_map[g.shift_mask(x, a)] = g.shift_mask(x, target)
        elif 2 * a.bit_count() > n or 2 * a.bit_count() == n and a < min(b ^ full for b in orbit):
            for b in orbit:
                e_map[b] = full

    try:
        sig = phi_inverse(e_map, g)
    except ValueError as exc:
        raise InvariantError(f"constructed projection is not in Enl(P(X)): {exc}") from exc
    if circ(sig, sig).bits != sig.bits:
        raise InvariantError("constructed projection is not idempotent")
    return sig


# -- the reference table ----------------------------------------------------------------------


REFERENCE_ROWS: tuple[tuple[str, int, str], ...] = (
    # (group spec, idempotents per minimal left ideal, minimal left ideal type)
    ("C2", 1, "C2"),
    ("C4", 1, "C2 x C4"),
    ("C2xC2", 1, "C2^3"),
    ("C2xC2xC2", 1, "C2^7"),
    ("C2xC4", 1, "C2^3 x C4^2"),
    ("C8", 2, "2 x C2 x C4 x C8"),
    ("D8", 2, "2^2 x C2^5"),
    ("Q8", 2, "2 x C2^3 x Q8"),
    ("A4", 64, "2^6 x C2^3"),
)


def reference_reports() -> list[tuple[str, StructureReport]]:
    """Reports for the reference catalog, discrepancy-annotated; rows of order
    <= MAX_ENUM_ORDER are cross-checked, the others are structural."""
    out = []
    for spec, ref_idem, ref_ideal in REFERENCE_ROWS:
        g = parse_spec(spec)
        report = cross_check(g, spec).merged if g.order <= MAX_ENUM_ORDER else analyze_structural(g, spec)
        notes = list(report.notes)
        for what, got, ref in (
            ("minimal left ideal", report.min_left_ideal_type, ref_ideal),
            ("maximal subgroup", report.max_subgroup_type, strip_left_zero_factor(ref_ideal)),
            ("idempotent count", report.idempotents_per_min_left_ideal, ref_idem),
        ):
            if got != ref:
                notes.append(f"discrepancy: computed {what} {got}; reference lists {ref}")
        out.append((spec, replace(report, notes=tuple(notes))))
    return out


def catalog_specs(max_order: int = 16) -> list[str]:
    """Deterministic catalog of named groups up to the given order."""
    specs = [f"C{n}" for n in range(1, 17)]
    specs += ["C2xC2", "C2xC2xC2", "C2xC4", "C2xC2xC2xC2", "C2xC2xC4", "C2xC8", "C4xC4"]
    specs += [f"D{n}" for n in range(6, 17, 2)]
    specs += ["Q8", "Q16", "A4"]
    return [s for s in specs if spec_order(s) <= max_order]
