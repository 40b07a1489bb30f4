"""Finite groups as validated Cayley tables.

Every group lives on the index set 0..n-1 with the identity pinned at
index 0; FiniteGroup validates a table as given and then moves its
identity there, which keeps every downstream mask formula free of an
identity offset.  Subsets of a group are plain ints used as bit masks
(bit i set <=> element i in the subset).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from math import gcd
from operator import and_, itemgetter, or_

MAX_PIPELINE_ORDER = 16
MAX_GROUP_ORDER = 64
MAX_DOCUMENT_CHARS = 1 << 20  # a Cayley document of order 64 with names is under 50 KB


class GroupValidationError(ValueError):
    """A Cayley table failed a group axiom.

    ``kind`` is one of "shape", "latin_square", "identity",
    "associativity" and ``witness`` carries the offending indices (the
    triple (i, j, k) for an associativity failure).
    """

    def __init__(self, kind: str, message: str, witness=None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never bad input."""


class FiniteGroup:
    """Immutable group on 0..n-1 given by its full multiplication table,
    validated as given (so witnesses are in the caller's indices); then the
    identity is swapped to index 0, names with it: renumbering[new] = old."""

    def __init__(self, table, names=None):
        check_shape(table)
        self.table = tuple(map(tuple, table))
        self.order = n = len(self.table)
        if names is not None and len(names) != n:
            raise GroupValidationError("shape", "names length does not match order")
        e, gens = self._validate()
        old = list(range(n))
        old[0], old[e] = e, 0
        if e:
            self.table = restrict(self.table, old)
        self.names = tuple(names[i] for i in old) if names is not None else None
        self.renumbering = tuple(old)
        self.generators = tuple(old[s] for s in gens)  # old swaps two indices: its own inverse
        # x*y = 0 for the one y in row x (a permutation), and then
        # (y*x)*y = y*(x*y) = 0*y forces y*x = 0 (column y is a permutation)
        self.inv = tuple(row.index(0) for row in self.table)
        self._shift_rows: dict[int, list[int]] = {}
        self._caches: dict[str, object] = {}

    # -- construction-time validation -------------------------------------

    def _validate(self) -> tuple[int, list[int]]:
        """The identity's index and a generating set S, once the table passes every axiom.

        Associativity is Light's test (Clifford & Preston I, 1.2) on S: a is good when the rows
        t[x*a] are the rows t[x] read at row a.  Good a, b give a good ab, by a, b, a, b in turn:
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  The identity is good, and closure
        reaches the rest as left-normed products (..(s1*s2)*..)*sk of S.  On a failure the full
        scan names the lexicographically first triple."""
        n, t = self.order, self.table
        columns = list(zip(*t))
        for i in range(n):
            if len(set(t[i])) != n:
                raise GroupValidationError("latin_square", f"row {i} is not a permutation", witness=i)
            if len(set(columns[i])) != n:
                raise GroupValidationError("latin_square", f"column {i} is not a permutation", witness=i)
        ident = tuple(range(n))
        e = columns[0].index(0)  # an identity e has e*0 = 0, and column 0 holds 0 once
        if t[e] != ident or columns[e] != ident:
            raise GroupValidationError("identity", "no element is a two-sided identity")
        gens = greedy_generators(t, [x for x in ident if x != e])
        if any(gather(columns[a])(t) != tuple(map(gather(t[a]), t)) for a in gens):
            i, j, k = associativity_witness(t)
            raise GroupValidationError("associativity", f"({i}*{j})*{k} != {i}*({j}*{k})", witness=(i, j, k))
        return e, gens

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, x: int, a: int) -> int:
        """x * a * x^-1."""
        return self.table[self.table[x][a]][self.inv[x]]

    def conj_mask(self, x: int, mask: int) -> int:
        """{x*a*x^-1 : a in mask} as a mask."""
        return sum(gather(list(mask_elements(mask)))(self.conj_bits[x]))

    def conj_images(self, mask: int) -> list[int]:
        """x*mask*x^-1 for every x: one gather of the masked bits of conj_bits[x] each."""
        at = gather(list(mask_elements(mask)))
        return [sum(at(row)) for row in self.conj_bits]

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != 0:
            y = self.table[y][x]
            k += 1
        return k

    def memo(self, key, fn):
        """fn(), computed once per group and kept under key."""
        if key not in self._caches:
            self._caches[key] = fn()
        return self._caches[key]

    @property
    def element_orders(self) -> tuple[int, ...]:
        return self.memo("orders", lambda: tuple(self.element_order(x) for x in range(self.order)))

    @property
    def conj_bits(self) -> list[tuple[int, ...]]:
        """conj_bits[x][a] = 1 << x*a*x^-1: column x^-1, as bits, read at row x."""

        def build():
            bits = [1 << v for v in range(self.order)]
            columns = [gather(col)(bits) for col in zip(*self.table)]
            return [gather(row)(columns[i]) for row, i in zip(self.table, self.inv)]

        return self.memo("conj_bits", build)

    @property
    def is_abelian(self) -> bool:
        return self.center_mask() == self.full_mask()

    def center_mask(self) -> int:
        """The x whose row equals their column."""
        return self.memo("centre", lambda: mask_from_elements(
            x for x, (row, col) in enumerate(zip(self.table, zip(*self.table))) if row == col))

    def derived_subgroup_mask(self) -> int:
        def build():
            gens = set()
            for a in range(self.order):
                for b in range(self.order):
                    gens.add(self.table[self.table[self.table[a][b]][self.inv[a]]][self.inv[b]])
            return closure(self.table, mask_from_elements(gens))

        return self.memo("derived", build)

    # -- subset masks ---------------------------------------------------------

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def shift_row(self, x: int) -> list[int]:
        """Table of mask -> x*mask, built lazily (orders <= 16 only)."""
        row = self._shift_rows.get(x)
        if row is None:
            if self.order > MAX_PIPELINE_ORDER:
                raise ValueError("shift tables only built for order <= 16")
            row = [0]  # doubled per element i: masks with bit i gain x*i
            for y in self.table[x]:
                row += [r | 1 << y for r in row]
            self._shift_rows[x] = row
        return row

    def shift_mask(self, x: int, mask: int) -> int:
        """{x*a : a in mask} as a mask, read off shift_row (orders <= 16 only)."""
        return self.shift_row(x)[mask]

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def check_shape(table) -> None:
    """n >= 1 rows of n int entries in 0..n-1, or GroupValidationError("shape")."""
    if not isinstance(table, (list, tuple)) or not table:
        raise GroupValidationError("shape", "table is not a non-empty list of rows")
    n = len(table)
    entries = set(range(n))
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise GroupValidationError("shape", f"row {i} is not a list of {n} entries")
        # the type test first: 1.0 == 1 and True == 1 would pass the range test
        if not ({int}.issuperset(map(type, row)) and entries.issuperset(row)):
            j, v = next((j, v) for j, v in enumerate(row) if type(v) is not int or not 0 <= v < n)
            if type(v) is not int:
                raise GroupValidationError("shape", f"entry ({i},{j}) = {v!r} is not an integer")
            raise GroupValidationError("shape", f"entry ({i},{j}) = {v!r} out of range")


# -- mask helpers --------------------------------------------------------------


def mask_from_elements(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def mask_elements(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gather(idx):
    """seq -> tuple(seq[i] for i in idx) at C speed; a bare itemgetter of
    one index would return a scalar, and one of none would raise."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    return itemgetter(*idx) if idx else lambda seq: ()


def translate_product(rows, maps):
    """mult(i, j) = the index of maps[i] o maps[j]: maps[i] is element i as a
    table of at most 256 bytes, rows[i] its values at points that tell the
    elements apart, so a product is one bytes.translate and one dict lookup.
    InvariantError if two rows are equal maps; KeyError for a product not listed."""
    index = {r: i for i, r in enumerate(rows)}
    if len(index) != len(rows):
        raise InvariantError("two elements share a row: equal maps")
    tables = [m.ljust(256, b"\0") for m in maps]
    return lambda i, j: index[rows[j].translate(tables[i])]


def subtable(mul, elems) -> list[list[int]]:
    """The product mul restricted to elems, renumbered in the given order."""
    elems = list(elems)
    pos = {e: i for i, e in enumerate(elems)}
    return [[pos[mul(a, b)] for b in elems] for a in elems]


def restrict(table, elems, label=None) -> tuple[tuple[int, ...], ...]:
    """table restricted to the list elems by gathers, each product relabelled
    by label (by default its position in elems, KeyError outside elems)."""
    at, label = gather(elems), label or {e: i for i, e in enumerate(elems)}
    return tuple(gather(at(row))(label) for row in at(table))


def associativity_witness(table) -> tuple[int, int, int] | None:
    """The lexicographically first (i, j, k) with (i*j)*k != i*(j*k), or None.

    (i*j)*k = i*(j*k) for every k iff row t[i*j] is row t[i] gathered at
    row t[j], and gathers[i](t) lists the rows t[i*j] for every j.  Rows
    are compared as tuples, which the gathers return.
    """
    t = tuple(map(tuple, table))
    n = len(t)
    gathers = [gather(row) for row in t]
    for i, ti in enumerate(t):
        left = list(gathers[i](t))
        if left != [g(ti) for g in gathers]:
            j = next(j for j in range(n) if left[j] != gathers[j](ti))
            k = next(k for k in range(n) if t[ti[j]][k] != ti[t[j][k]])
            return i, j, k
    return None


# -- constructors ---------------------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    """Z/nZ with table[i][j] = (i+j) mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"order {n} exceeds cap {MAX_GROUP_ORDER}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, names=[str(i) for i in range(n)])


def _metacyclic(n: int, square: int, letters: tuple[str, str]) -> FiniteGroup:
    """r^i then r^i*s for i < n, with s r s^-1 = r^-1 and s^2 = r^square."""
    r, s = letters

    def mul(a, b):
        (i, f), (j, h) = a, b
        return ((i - j if f else i + j) + (square if f and h else 0)) % n, f ^ h

    elems = [(i, f) for f in (0, 1) for i in range(n)]
    names = [f"{r}{i}" for i in range(n)] + [f"{r}{i}{s}" for i in range(n)]
    return FiniteGroup(subtable(mul, elems), names=names)


def make_dihedral(two_n: int) -> FiniteGroup:
    """Dihedral group of order two_n: rotations r^i then reflections r^i*s."""
    if two_n < 2 or two_n % 2:
        raise ValueError("dihedral order must be a positive even integer")
    if two_n > MAX_GROUP_ORDER:
        raise ValueError(f"order {two_n} exceeds cap {MAX_GROUP_ORDER}")
    return _metacyclic(two_n // 2, 0, ("r", "s"))


def make_generalized_quaternion(two_pow: int) -> FiniteGroup:
    """Generalized quaternion group: y of order two_pow/2, x^2 = y^(two_pow/4), x y x^-1 = y^-1."""
    if two_pow not in (8, 16, 32, 64):
        raise ValueError("generalized quaternion order must be one of 8, 16, 32, 64")
    return _metacyclic(two_pow // 2, two_pow // 4, ("y", "x"))


def make_alternating4() -> FiniteGroup:
    """Even permutations of 4 points under composition, the identity first."""
    perms = [p for p in permutations(range(4)) if sum(x > y for x, y in combinations(p, 2)) % 2 == 0]
    table = subtable(lambda p, q: tuple(p[k] for k in q), perms)
    return FiniteGroup(table, names=["".join(map(str, p)) for p in perms])


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Pairs (a, b) in lexicographic order.  No order cap: parse_spec caps spec products."""
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    table = subtable(lambda x, y: (g.table[x[0]][y[0]], h.table[x[1]][y[1]]), pairs)
    names = None
    if g.names and h.names:
        names = [f"{ga},{hb}" for ga in g.names for hb in h.names]
    return FiniteGroup(table, names=names)


def make_cq_product(q) -> FiniteGroup:
    """C_{2^k} and Q_{2^k} factors, q[(family, k)] of each, chained as direct
    products in sorted tag order.  Callers size q by a group they hold."""
    factors = [
        make_cyclic(2**k) if fam == "C" else make_generalized_quaternion(2**k)
        for (fam, k), count in sorted(q.items())
        for _ in range(count)
    ]
    return reduce(direct_product, factors, make_cyclic(1))


# -- Cayley table documents -------------------------------------------------------


def from_cayley_document(document: dict) -> FiniteGroup:
    """A {"order", "table", "names"?} JSON object as a FiniteGroup: the loader
    checks the document's shape, FiniteGroup the table in the document's indices."""
    if not isinstance(document, dict) or "order" not in document or "table" not in document:
        raise GroupValidationError("shape", 'document must contain "order" and "table"')
    n = document["order"]
    table = document["table"]
    if type(n) is not int or not 1 <= n <= MAX_GROUP_ORDER:  # bool is an int subclass
        raise GroupValidationError("shape", f"order must be an integer from 1 to {MAX_GROUP_ORDER}")
    if not isinstance(table, list) or len(table) != n:
        raise GroupValidationError("shape", f"table is not a list of {n} rows")
    names = document.get("names")
    if names is not None and not (isinstance(names, list) and all(type(x) is str for x in names)):
        raise GroupValidationError("shape", "names must be a list of strings")
    return FiniteGroup(table, names)


def from_cayley_file(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read(MAX_DOCUMENT_CHARS + 1)  # bounded: file:/dev/zero must not exhaust memory
    if len(text) > MAX_DOCUMENT_CHARS:
        raise GroupValidationError("shape", f"{path}: document exceeds {MAX_DOCUMENT_CHARS} characters")
    try:
        document = json.loads(text)
    except RecursionError:  # a RuntimeError, which the CLI would report as an invariant failure
        raise GroupValidationError("shape", f"{path}: JSON nesting is too deep") from None
    return from_cayley_document(document)


def to_cayley_document(g: FiniteGroup) -> dict:
    doc = {"order": g.order, "table": [list(row) for row in g.table]}
    if g.names:
        doc["names"] = list(g.names)
    return doc


# -- subgroups ------------------------------------------------------------------


def closure(table, mask: int) -> int:
    """Smallest mask containing mask and closed under the product of table.

    Every product s1...sk of masked elements is (s1...s(k-1))*sk, so closing
    under right multiplication by the masked elements alone reaches them all.
    """
    gens = list(mask_elements(mask))
    seen = mask
    frontier = gens[:]
    while frontier:
        row = table[frontier.pop()]
        for s in gens:
            z = row[s]
            if not seen >> z & 1:
                seen |= 1 << z
                frontier.append(z)
    return seen


def is_subgroup_mask(g: FiniteGroup, mask: int) -> bool:
    """In a finite group a product-closed set holding the identity is a subgroup."""
    if not mask & 1:
        return False
    elems = list(mask_elements(mask))
    row_at, members = gather(elems), set(elems)
    return all(members.issuperset(row_at(g.table[a])) for a in elems)


def is_normal_mask(g: FiniteGroup, mask: int, gens=None) -> bool:
    """x*mask*x^-1 = mask for every x in gens, by default g's generators: the x that fix a set
    under conjugation are closed under products, so they are all of g once they hold its generators."""
    return all(g.conj_mask(x, mask) == mask for x in (g.generators if gens is None else gens))


def all_subgroups(g: FiniteGroup) -> list[int]:
    """Complete duplicate-free list of subgroup masks, by (size, mask),
    found by generator extension.  <h, a*x> = <h, x> for every a in h, so h
    is extended by the least x of each right coset h*x other than h itself:
    [X:h] - 1 closures per subgroup h, not n - |h|."""
    if g.order > MAX_GROUP_ORDER:
        raise ValueError(f"order {g.order} exceeds cap {MAX_GROUP_ORDER}")
    columns = list(zip(*g.table))
    found = {1: 0}  # each subgroup found -> a mask of generators of it
    frontier = [1]
    while frontier:
        h = frontier.pop()
        coset_at = gather(list(mask_elements(h)))  # column x -> the right coset h*x
        covered = set(coset_at(columns[0]))
        for x in range(1, g.order):
            if x in covered:
                continue
            covered.update(coset_at(columns[x]))
            gens = found[h] | 1 << x
            k = closure(g.table, gens)
            if k not in found:
                found[k] = gens
                frontier.append(k)
    return sorted(found, key=lambda m: (m.bit_count(), m))


def orbits(points, images) -> list[list[int]]:
    """The partition of points into the sorted sets images(p), one per point
    p not yet covered, in the order of those points.

    images(p) must hold p, as the orbit of p under a group action does.
    """
    seen = set()
    out = []
    for p in points:
        if p not in seen:
            orbit = sorted(set(images(p)))
            seen.update(orbit)
            out.append(orbit)
    return out


# -- quotients -------------------------------------------------------------------------


def quotient(g: FiniteGroup, mask: int) -> FiniteGroup:
    """Group on the left cosets of the normal subgroup mask, in the order of
    their least elements."""
    if not (is_subgroup_mask(g, mask) and is_normal_mask(g, mask)):
        raise ValueError("quotient requires a normal subgroup")
    at = gather(list(mask_elements(mask)))
    cosets = orbits(range(g.order), lambda x: at(g.table[x]))  # x*N is row x read at N
    reps = [c[0] for c in cosets]
    coset_of = [0] * g.order
    for i, c in enumerate(cosets):
        for x in c:
            coset_of[x] = i
    q = FiniteGroup(restrict(g.table, reps, coset_of))
    # c(x*y) against c(x)*c(y) for the generators x of g: the x that pass are closed under products,
    # c((ab)y) = c(a(by)) = c(a)(c(b)c(y)) = (c(a)c(b))c(y) = c(ab)c(y) as q is associative
    for x in g.generators:
        if gather(g.table[x])(coset_of) != gather(coset_of)(q.table[coset_of[x]]):
            raise InvariantError(f"coset projection is not a homomorphism at {x}")
    if mask_from_elements(x for x, c in enumerate(coset_of) if c == 0) != mask:
        raise InvariantError("coset projection has the wrong kernel")
    return q


def greedy_generators(table, order) -> list[int]:
    """A generating set of table: each element, in the given order, that the product closure
    of those taken before it misses."""
    gens, closed = [], 0
    for x in order:
        if not closed >> x & 1:
            gens.append(x)
            closed = closure(table, mask_from_elements(gens))
    return gens


def hom_count_to_cyclic2(g: FiniteGroup, k: int) -> int:
    """|hom(g, C_{2^k})| = #{a in A : a^(2^k) = 1} for A = g/g': for a finite abelian A
    both are the product of gcd(e, 2^k) over A's cyclic factors C_e."""
    if g.order > MAX_GROUP_ORDER:
        raise ValueError(f"order {g.order} exceeds cap {MAX_GROUP_ORDER}")
    if k < 0 or 2**k > 2**16:
        raise ValueError("exponent out of range")
    return sum(2**k % o == 0 for o in quotient(g, g.derived_subgroup_mask()).element_orders)


# -- 2-cogroup masks (shared with the twin machinery) --------------------------------


def cogroup_masks(g: FiniteGroup) -> list[tuple[int, int, int]]:
    """All (K, KK, K_pm) mask triples: K = H_pm \\ H with H of index 2 in H_pm.
    Each H_pm of even size is compared only with the subgroups of half its size."""
    subs = all_subgroups(g)
    by_size: dict[int, list[int]] = {}
    for h in subs:
        by_size.setdefault(h.bit_count(), []).append(h)
    out = {}
    for hpm in subs:
        size = hpm.bit_count()
        if size % 2:
            continue
        for h in by_size.get(size // 2, ()):
            if h & hpm == h:
                out[hpm ^ h] = (hpm ^ h, h, hpm)
    return sorted(out.values())


def maximal_cogroup_masks(g: FiniteGroup) -> list[tuple[int, int, int]]:
    """The 2-cogroups in no larger one, by triple.  Walked by descending size:
    a 2-cogroup inside a larger one lies inside a maximal one, met earlier."""
    out = []
    for trip in sorted(cogroup_masks(g), key=lambda t: -t[0].bit_count()):
        if not any(m & trip[0] == trip[0] for m, _, _ in out):
            out.append(trip)
    return sorted(out)


def odd_subgroup(g: FiniteGroup) -> int:
    """Mask of O(X), the largest normal subgroup of odd order (by Lagrange and
    Cauchy, the one whose elements all have odd order).

    Computed as the intersection of KK over all maximal 2-cogroups K and
    checked against the normal closures <x^X>, which read no subgroup
    lattice: x lies in O(X) iff <x^X> has odd order.  If it does, <x^X> is a
    normal subgroup of odd order, so it lies in O(X); if x is in O(X), the
    normal subgroup O(X) holds every conjugate of x, so <x^X> is a subgroup
    of O(X) and its order divides |O(X)|.
    """
    mask = reduce(and_, (kk for _, kk, _ in maximal_cogroup_masks(g)), g.full_mask())
    closures = (closure(g.table, reduce(or_, g.conj_images(1 << x))) for x in range(g.order))
    if mask != mask_from_elements(x for x, c in enumerate(closures) if c.bit_count() % 2):
        raise InvariantError("KK intersection disagrees with the normal closures")
    return mask


# -- isomorphism testing ----------------------------------------------------------


class SearchBudgetExceeded(RuntimeError):
    """An isomorphism search used up its budget of map-extension steps."""


def find_isomorphism(t1, t2, gens, keys1, keys2, budget: int | None = None):
    """A bijection phi with phi[t1[a][b]] == t2[phi[a]][phi[b]], or None.

    keys1 and keys2 give each element of t1 and t2 an invariant that an
    isomorphism must keep: the answer is None when their multisets differ,
    and each generator may only map to an element with its own key.

    Backtracks over distinct images of the generators.  At every depth it
    extends the assigned images by right multiplication by the assigned
    generators and drops the branch on a conflict or a repeated image; a
    full assignment is verified on the whole table.  Raises
    SearchBudgetExceeded once the extension steps exceed the budget.
    """
    if sorted(keys1) != sorted(keys2):
        return None
    by_key: dict = {}
    for x, key in enumerate(keys2):
        by_key.setdefault(key, []).append(x)
    candidates = [by_key.get(keys1[s], []) for s in gens]
    n = len(t1)
    images: list[int] = []
    ops = 0

    def extend():
        """Map everything the assigned generators reach; None on a conflict or a repeated image."""
        nonlocal ops
        phi = [-1] * n
        used = bytearray(n)
        todo = list(zip(gens, images))
        while todo:
            x, v = todo.pop()
            if phi[x] != -1:
                if phi[x] != v:
                    return None
                continue
            if used[v]:
                return None
            phi[x] = v
            used[v] = 1
            ops += len(images)
            if budget is not None and ops > budget:
                raise SearchBudgetExceeded(f"isomorphism search exceeded {budget} steps")
            row1, row2 = t1[x], t2[v]
            todo.extend((row1[s], row2[w]) for s, w in zip(gens, images))
        return phi

    def is_isomorphism(phi) -> bool:
        if -1 in phi or len(set(phi)) != n:
            return False
        for a in range(n):
            r1, r2 = t1[a], t2[phi[a]]
            if any(phi[r1[b]] != r2[phi[b]] for b in range(n)):
                return False
        return True

    def backtrack(depth):
        phi = extend()
        if phi is None:
            return None
        if depth == len(gens):
            return phi if is_isomorphism(phi) else None
        for cand in candidates[depth]:
            if cand in images:
                continue
            images.append(cand)
            phi = backtrack(depth + 1)
            if phi is not None:
                return phi
            images.pop()
        return None

    return backtrack(0)


def group_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """A search over generator images, highest element order first, keyed by
    (element order, in the centre, in the derived subgroup)."""
    def keys(g):
        z, d = g.center_mask(), g.derived_subgroup_mask()
        return [(o, z >> x & 1, d >> x & 1) for x, o in enumerate(g.element_orders)]

    gens = greedy_generators(g1.table, sorted(range(g1.order), key=lambda v: (-g1.element_orders[v], v)))
    return find_isomorphism(g1.table, g2.table, gens, keys(g1), keys(g2)) is not None


# -- finitely generated abelian presentations ----------------------------------------


INFINITY = "infinity"


@dataclass(frozen=True)
class FgAbelianPresentation:
    """Z^free_rank + the C_f for f in torsion_factors, in any cyclic decomposition: hom
    counts multiply as gcd(f, m), C_1 gives gcd(1, m) = 1 and f = 0, a copy of Z, gives m."""

    free_rank: int
    torsion_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    def hom_count_to_cyclic2(self, k: int) -> int:
        m = 2**k
        count = 2 ** (k * self.free_rank)
        for f in self.torsion_factors:
            count *= gcd(f, m)
        return count


def fg_abelian_q(p: FgAbelianPresentation, k) -> int:
    """Number of subgroups with cyclic 2-power quotient of the given exponent.

    For the infinity token it is 0: a quotient of a finitely generated group
    is finitely generated, and C_{2^infinity} is not.
    """
    if k == INFINITY:
        return 0
    if not isinstance(k, int) or k < 1:
        raise ValueError("exponent must be a positive integer or the infinity token")
    return (p.hom_count_to_cyclic2(k) - p.hom_count_to_cyclic2(k - 1)) // 2 ** (k - 1)


# -- group specs --------------------------------------------------------------------


GRAMMAR = "C<n>, D<2n>, Q<8|16|32>, A4, products joined with 'x', or file:<path>"


class SpecError(ValueError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


_ATOM_RE = re.compile(r"([CDQ])([0-9]+)")  # fullmatch: \d takes any Unicode digit, $ a final newline


def _make_atom(token: str, position: int) -> FiniteGroup:
    if token == "A4":
        return make_alternating4()
    m = _ATOM_RE.fullmatch(token)
    if not m:
        raise SpecError(f"bad token {token!r} at position {position}; expected {GRAMMAR}", position)
    letter, num = m.group(1), int(m.group(2))
    if letter == "Q" and num not in (8, 16, 32):
        raise SpecError(f"Q{num} not supported at position {position}; use Q8, Q16 or Q32", position)
    try:
        if letter == "C":
            return make_cyclic(num)
        if letter == "D":
            return make_dihedral(num)
        return make_generalized_quaternion(num)
    except ValueError as exc:
        raise SpecError(f"{exc} (token {token!r} at position {position})", position) from exc


def parse_spec(text: str) -> FiniteGroup:
    """Build a fresh group for a spec string, left-to-right for products.

    A product above MAX_GROUP_ORDER is refused, at the position of the
    factor that overflows, before it is built.  File specs are read from
    disk on every call.
    """
    if text.startswith("file:"):
        return from_cayley_file(text[5:])
    position = 0
    group = None
    for tok in text.split("x"):
        if not tok:
            raise SpecError(f"empty token at position {position}", position)
        atom = _make_atom(tok, position)
        if group is not None and group.order * atom.order > MAX_GROUP_ORDER:
            message = f"product order {group.order * atom.order} exceeds cap {MAX_GROUP_ORDER} while building {text!r}"
            raise SpecError(message, position)
        group = atom if group is None else direct_product(group, atom)
        position += len(tok) + 1
    return group


def spec_order(text: str) -> int:
    return parse_spec(text).order
