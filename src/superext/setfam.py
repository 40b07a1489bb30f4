"""Families of subsets of a finite group encoded at the bit level.

A maximal linked system is stored as one choice bit per complementary
pair {A, X\\A}; the representative of a pair is the mask with the smaller
integer value, so pair ids are exactly the masks 0 .. 2^(n-1)-1 and
membership is O(1).  Explicit families are only materialized for general
(non-maximal-linked) inputs.

The function representation Phi comes two ways.  pair_row and phi_table
read one system's table off its membership string (orders <= 16).
phi_tables builds the tables of a whole list of systems together (orders
<= 8): the signatures, packed into one int, become one 0/1 byte string,
and each subset's column over all systems is one strided slice of it.
Phi is equivariant, Phi(x*A) = x*Phi(A), so the columns are computed only
at the least mask of each left-shift orbit of P(X), each group element
adding one big integer, and the others are translated from them through
the shift rows: no Python loop runs over the systems.  indexed_circ, the
product of lambda_semigroup, composes a's table with b's pair row through
one bytes.translate, which fits because phi_tables stops at order 8.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import index as int_index

from .groups import FiniteGroup, gather, orbits, translate_product

MAX_ENUM_ORDER = 6
MAX_ENUM_ORDER_WITH_BUDGET = 7


class BudgetExceeded(RuntimeError):
    """lambda(X) has more systems than the budget; raised before any is built."""

    def __init__(self, budget: int):
        super().__init__(f"budget exceeded: lambda has more than {budget} systems")
        self.budget = budget


@dataclass(frozen=True, slots=True)
class FamilyOfSets:
    """An arbitrary member of the double power set: explicit masks."""

    group: FiniteGroup = field(compare=False)
    members: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class MlsSignature:
    """A maximal linked system: one bit per complementary pair."""

    group: FiniteGroup = field(compare=False)
    bits: int = 0

    def contains(self, mask: int) -> bool:
        half = 1 << (self.group.order - 1)
        if mask < half:
            return bool((self.bits >> mask) & 1)
        return not (self.bits >> (mask ^ self.group.full_mask())) & 1

    def to_family(self) -> FamilyOfSets:
        return FamilyOfSets(self.group, frozenset(m for m, c in enumerate(_membership(self)) if c == "1"))


def principal_ultrafilter(g: FiniteGroup, x: int) -> MlsSignature:
    bits = 0
    for p in range(1 << (g.order - 1)):
        if (p >> x) & 1:
            bits |= 1 << p
    return MlsSignature(g, bits)


def is_linked(f: FamilyOfSets) -> bool:
    members = sorted(f.members)
    return all(a & b for i, a in enumerate(members) for b in members[i:])


def is_maximal_linked(f: FamilyOfSets) -> bool:
    """Linked, and no subset outside the family meets every member."""
    if not is_linked(f):
        return False
    full = f.group.full_mask()
    for a in range(full + 1):
        if a in f.members:
            continue
        if all(a & b for b in f.members):
            return False
    return True


def family_to_signature(f: FamilyOfSets) -> MlsSignature:
    if not is_maximal_linked(f):
        raise ValueError("family is not maximal linked")
    half = 1 << (f.group.order - 1)
    bits = 0
    for p in range(half):
        if p in f.members:
            bits |= 1 << p
    return MlsSignature(f.group, bits)


# -- enumeration of all maximal linked systems ------------------------------------


def _pair_order(n: int, order: str) -> list[int]:
    half = 1 << (n - 1)
    reps = list(range(1, half))  # the {empty, X} pair is pre-forced
    if order == "descending":
        reps.reverse()
    elif order == "skew_first":
        # most-skewed pairs first; balanced pairs constrain least and go last
        reps.sort(key=lambda p: (min(p.bit_count(), n - p.bit_count()), p))
    elif order == "balanced_first":
        reps.sort(key=lambda p: (-min(p.bit_count(), n - p.bit_count()), p))
    else:
        raise ValueError(f"unknown enumeration order {order!r}")
    return reps


class MlsSequence(Sequence):
    """Read-only systems over one group, kept as signature bits; each
    MlsSignature is built only when it is read."""

    __slots__ = ("group", "bits")

    def __init__(self, group: FiniteGroup, bits: list[int]):
        self.group = group
        self.bits = bits

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> MlsSignature:
        return MlsSignature(self.group, self.bits[int_index(i)])

    def __iter__(self):
        return map(MlsSignature, repeat(self.group), self.bits)


def _check_order(n: int, budget: int | None) -> None:
    if n > MAX_ENUM_ORDER_WITH_BUDGET:
        raise ValueError(f"enumeration beyond order {MAX_ENUM_ORDER_WITH_BUDGET} is not supported")
    if n > MAX_ENUM_ORDER and budget is None:
        raise ValueError(f"order {n} enumeration requires an explicit budget")


def enumerate_mls(g: FiniteGroup, order: str = "descending", budget: int | None = None) -> MlsSequence:
    """Every maximal linked system on g exactly once, sorted by signature.

    Branches over complementary pairs with unit propagation on two bitsets
    over the pair representatives: inb (member is p) and outb (member is
    X\\p).  Committing a member M ORs in two tables precomputed per mask,
    force_in[M] (supersets of M) and force_out[M] (sets disjoint from M).
    Propagating M alone is complete: every member it forces is a superset
    of M, so what that member forces is already in M's tables.  No branch
    fails, so inb & outb stays 0: an undecided p meets every committed
    member (else p was forced out), and so does X\\p (else p was forced
    in), so the committed members stay pairwise intersecting.

    Sorted without a sort in the default "descending" order: at the node
    that branches on p every pair above p is decided, and the X\\p branch,
    taken first, leaves bit p at 0 where the p branch sets it, so the
    search emits ascending signatures.  "skew_first" and "balanced_first"
    are sorted afterwards and serve as references.

    Small tails are memoized: what a member forces among the undecided
    pairs U depends only on the member (outside U it only repeats what is
    decided, since no branch fails), and the next pair to branch on is
    the first of U in the order, so the in-bits that the search adds below
    a node depend on U alone.  Adding them to a node's inb keeps them in
    order, since inb has no bit in U.

    A budget is checked up front against count_mls: BudgetExceeded(budget)
    is raised before any search, with nothing cached.  Returns an
    MlsSequence over the cached bits.  Orders beyond 6 require an explicit
    budget; order 8+ is refused.
    """
    _check_order(g.order, budget)
    if budget is not None and count_mls(g, budget) > budget:
        raise BudgetExceeded(budget)
    return MlsSequence(g, g.memo(("mls_enum", order), lambda: _enumerate_bits(g.order, order)))


def count_mls(g: FiniteGroup, budget: int | None = None) -> int:
    """|lambda(g)| by enumerate_mls's search without its systems: by the
    memo lemma there, the count below a node depends on U alone, so every
    U is memoized.  The budget only gates the order, as in enumerate_mls."""
    _check_order(g.order, budget)
    return g.memo("mls_count", lambda: _count_bits(g.order))


def _search_tables(n: int, order: str):
    """Per pair in search order: its bit, and the force tables of member p
    and of X\\p; with the mask of every pair."""
    half = 1 << (n - 1)
    full = (1 << n) - 1
    # force_in[M] / force_out[M]: the representatives t with t >= M / t & M == 0
    force_in = [sum(1 << t for t in range(half) if t & m == m) for m in range(full + 1)]
    force_out = [sum(1 << t for t in range(half) if not t & m) for m in range(full + 1)]
    reps = _pair_order(n, order)
    steps = [(force_in[p], force_out[p], force_out[p ^ full]) for p in reps]
    return [1 << p for p in reps], steps, (1 << half) - 1


def _count_bits(n: int) -> int:
    bits, steps, every = _search_tables(n, "descending")
    memo = {0: 1}

    def count(i: int, u: int) -> int:  # u: the undecided pairs
        if (c := memo.get(u)) is None:
            while not u & bits[i]:
                i += 1
            p_in, p_out, comp_out = steps[i]
            c = memo[u] = count(i + 1, u & ~comp_out) + count(i + 1, u & ~(p_in | p_out))
        return c

    return count(0, every ^ 1)  # bit 0 out, as in _enumerate_bits


# Tails below nodes with at most this many undecided pairs are memoized.
# Search alone at C7 (1,422,564 systems; best of 5, 2-core box, Python
# 3.11.7): 1.90 s unmemoized, 0.92 s with 2, 0.50 s with 4, 0.30 s with
# 6, 0.23-0.25 s with 7-8, 0.33 s with 10 and 0.40 s with 12.  With 8 the
# memo holds 4,852 tails of 176,293 ints in all.
MEMO_MAX_UNDECIDED = 8


def _enumerate_bits(n: int, order: str) -> list[int]:
    bits, steps, every = _search_tables(n, order)
    out: list[int] = []
    memo: dict[int, list[int]] = {}

    def search(i: int, inb: int, outb: int):
        undecided = every ^ (inb | outb)
        if not undecided:
            out.append(inb)
        elif undecided.bit_count() > MEMO_MAX_UNDECIDED:
            branch(i, inb, outb, undecided)
        elif (tail := memo.get(undecided)) is not None:
            out.extend([inb | c for c in tail])
        else:
            start = len(out)
            branch(i, inb, outb, undecided)
            memo[undecided] = [x ^ inb for x in out[start:]]

    def branch(i: int, inb: int, outb: int, undecided: int):
        while not undecided & bits[i]:  # stops: pairs before i are decided, one is not
            i += 1
        p_in, p_out, comp_out = steps[i]
        search(i + 1, inb, outb | comp_out)  # member X\p: it holds n-1, so no superset is a representative
        search(i + 1, inb | p_in, outb | p_out)  # member p

    search(0, 0, 1)  # bit 0 out: the {empty, X} pair's member is X
    if order != "descending":
        out.sort()
    return out


# -- the semigroup product and the function representation ----------------------------


def phi(a, mask: int) -> int:
    """{x : x^-1 * mask in a} for a family or signature a."""
    g = a.group
    out = 0
    contains = a.contains if isinstance(a, MlsSignature) else a.members.__contains__
    for x in range(g.order):
        if contains(g.shift_mask(g.inv[x], mask)):
            out |= 1 << x
    return out


def phi_map(a) -> tuple[int, ...]:
    """The whole function representation as a tuple indexed by mask."""
    g = a.group
    return tuple(phi(a, m) for m in range(g.full_mask() + 1))


_FLIP = str.maketrans("01", "10")


def _membership(sig: MlsSignature) -> str:
    """Char m is '1' iff mask m is a member: the bits reversed, then their
    complement for the high half (pair symmetry)."""
    low = format(sig.bits, f"0{1 << (sig.group.order - 1)}b")
    return low[::-1] + low.translate(_FLIP)


def pair_row(sig: MlsSignature) -> tuple[int, ...]:
    """Phi(sig)(p) for every pair representative p < 2^(n-1)."""
    g = sig.group
    n, half = g.order, 1 << (g.order - 1)
    width = 8 if n <= 8 else 16
    # one gather reads every Phi(sig)(p) off the membership string as
    # byte-aligned fields of one int: p = 0 first, bit n-1 first in each, the
    # top width - n bits read at index 2^n, the '0' appended to the string
    def index():
        pad = [1 << n] * (width - n)
        rows = [g.shift_row(g.inv[x])[:half] for x in reversed(range(n))]
        return gather([i for col in zip(*rows) for i in pad + list(col)])

    fields = g.memo("phi_fields", index)
    raw = int("".join(fields(_membership(sig) + "0")), 2).to_bytes(half * width // 8, "big")
    return tuple(raw) if width == 8 else struct.unpack(f">{half}H", raw)


def phi_table(sig: MlsSignature) -> tuple[int, ...]:
    """phi_map of a signature: its pair row, the high half by Phi(X\\A) = X\\Phi(A)."""
    row = pair_row(sig)
    full = sig.group.full_mask()
    return row + tuple(full ^ v for v in reversed(row))


def circ(a, b):
    """Product of two families: {A : {x : x^-1 A in b} in a}.

    Two signatures yield a signature, read off a's membership at Phi(b)'s
    pair row; otherwise an explicit family.
    """
    if a.group is not b.group and a.group.table != b.group.table:
        raise ValueError("operands live over different groups")
    g = a.group
    if isinstance(a, MlsSignature) and isinstance(b, MlsSignature):
        bits = gather(pair_row(b)[::-1])(_membership(a))
        return MlsSignature(g, int("".join(bits), 2))
    fam_a = a.to_family() if isinstance(a, MlsSignature) else a
    fam_b = b.to_family() if isinstance(b, MlsSignature) else b
    members = frozenset(m for m in range(g.full_mask() + 1) if phi(fam_b, m) in fam_a.members)
    return FamilyOfSets(g, members)


_BYTES01 = bytes.maketrans(b"01", b"\0\1")
_NOT01 = bytes.maketrans(b"\0\1", b"\1\0")


def shift_orbits(g: FiniteGroup) -> list[list[int]]:
    """The left-shift orbits {x*A : x in X} of P(X), each sorted, in the order
    of their least masks; built once per group (orders <= 16)."""

    def build():
        rows = [g.shift_row(x) for x in range(g.order)]
        return orbits(range(g.full_mask() + 1), lambda a: [r[a] for r in rows])

    return g.memo("shift_orbits", build)


def _orbit_fill(g: FiniteGroup):
    """phi_tables' plan over the least masks r of the shift orbits: their
    count; per element x, the gather of the columns of x^-1 r; and per mask
    m = x*r, the index of r with x's shift row as a translate table, padded
    to 256 bytes."""
    n = g.order
    reps = [o[0] for o in shift_orbits(g)]
    maps = [bytes(g.shift_row(x)) + bytes(256 - (1 << n)) for x in range(n)]
    fill = [None] * (1 << n)
    for j, r in enumerate(reps):
        for x in reversed(range(n)):  # x = 0, the identity, is kept at m = r
            fill[g.shift_row(x)[r]] = (j, maps[x])
    picks = [gather([g.shift_row(g.inv[x])[r] for r in reps]) for x in range(n)]
    return len(reps), picks, fill


def phi_tables(g: FiniteGroup, bits: Sequence[int]) -> list[bytes]:
    """phi_table of every signature in bits, as bytes, built together.

    The signatures, packed into one int in blocks of w = max(2^(n-1), 8)
    bits and formatted once as a 0/1 byte string, hold pair q of every
    system in the strided column s[w-1-q::w]; X\\q's column is the
    complement's.  Bit x of Phi(A) is the membership of x^-1 A, so the
    columns of x^-1 r joined over the least masks r of the shift orbits
    make one plane, mask-major, and the planes shifted by x sum without
    carries into one byte per (r, system).  Phi is equivariant,
    Phi(x*A) = x*Phi(A), so column x*r is column r translated through x's
    shift row.  Orders > 8 would overflow a byte.
    """
    n, count = g.order, len(bits)
    if n > 8:
        raise ValueError(f"batched Phi tables hold one byte per entry: order {n} > 8")
    if not count:
        return []
    half = 1 << (n - 1)
    w = max(half, 8)
    packed = int.from_bytes(b"".join(map(int.to_bytes, bits, repeat(w // 8), repeat("big"))), "big")
    s = format(packed, f"0{count * w}b").encode().translate(_BYTES01)
    low = [s[w - 1 - q :: w] for q in range(half)]
    cols = low + [c.translate(_NOT01) for c in reversed(low)]
    size, picks, fill = g.memo("phi_fill", lambda: _orbit_fill(g))
    total = 0
    for x, pick in enumerate(picks):
        total += int.from_bytes(b"".join(pick(cols)), "big") << x
    packed_reps = total.to_bytes(count * size, "big")
    reps = [packed_reps[j * count : (j + 1) * count] for j in range(size)]
    flat = b"".join([reps[j].translate(shift) for j, shift in fill])
    return [flat[i::count] for i in range(count)]


def indexed_circ(g: FiniteGroup, bits: Sequence[int]):
    """mult(i, j) = the index of a o b in bits, for the systems a, b with
    signatures bits[i], bits[j].  Phi(a o b) = Phi(a) o Phi(b), so the pair
    row of a o b is b's pair row translated through Phi(a)'s table, which
    fits a translate table because phi_tables stops at order 8.
    """
    tables = phi_tables(g, bits)
    return translate_product([t[: 1 << (g.order - 1)] for t in tables], tables)


def phi_inverse(f: Sequence[int], g: FiniteGroup) -> MlsSignature:
    """The system a with Phi(a) = f, for f in Enl(P(X)) given as a sequence
    indexed by mask: the representation theorem's inverse.

    Pair p is a member of a iff the identity lies in f(p).  Phi(a) = f
    holds iff f is equivariant and symmetric.  Phi(a) is monotone iff a is
    upward closed: if A is in a and B above it is not, the identity lies
    in Phi(A) and not in Phi(B).  With bit m of m_a set iff mask m is in a,
    a is upward closed iff, for each x, m_a & ~(m_a >> 2^x) has no bit in
    Z_x, the masks without x: n big-int tests.  A self-dual upward-closed
    family is maximal linked.  ValueError names the first property that
    fails.
    """
    n = g.order
    sig = MlsSignature(g, sum(1 << p for p in range(1 << (n - 1)) if f[p] & 1))
    if phi_table(sig) != tuple(f):
        raise ValueError("map is not Phi of a system: not equivariant or not symmetric")
    m_a = int(_membership(sig)[::-1], 2)
    every = (1 << (1 << n)) - 1
    for x in range(n):
        step = 1 << x
        missed = m_a & ~(m_a >> step) & every // ((1 << 2 * step) - 1) * ((1 << step) - 1)
        if missed:
            a = (missed & -missed).bit_length() - 1
            raise ValueError(f"map is not monotone at {a} <= {a | step}")
    return sig


# -- stream format -----------------------------------------------------------------


def write_mls_stream(fh, g: FiniteGroup, sigs: MlsSequence) -> None:
    """One zero-padded hex line per system, one hex digit per four pairs."""
    pairs = 1 << (g.order - 1)
    fh.write(f"n={g.order} pairs={pairs}\n")
    fh.writelines(map(f"{{:0{pairs + 3 >> 2}x}}\n".format, sigs.bits))


def read_mls_stream(fh) -> tuple[int, list[int]]:
    """(n, signature bits) from a stream; ValueError names the first bad line."""
    header = fh.readline().strip()
    tokens = [kv.partition("=") for kv in header.split()]
    if sorted(k + eq for k, eq, _ in tokens) != ["n=", "pairs="]:
        raise ValueError(f"line 1: header {header!r} must hold n= and pairs= once each and nothing else")
    parts = {k: v for k, _, v in tokens}
    if parts["n"] not in map(str, range(1, MAX_ENUM_ORDER_WITH_BUDGET + 1)):
        raise ValueError(f"line 1: order {parts['n']!r} is not in 1..{MAX_ENUM_ORDER_WITH_BUDGET}")
    n = int(parts["n"])
    pairs = 1 << (n - 1)
    if parts["pairs"] != str(pairs):
        raise ValueError("line 1: pair count does not match the order in the header")
    bits = []
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        if line.strip().strip("0123456789abcdefABCDEF"):  # int(_, 16) also takes 0x2, +2, 0_2
            raise ValueError(f"line {lineno}: {line.strip()!r} is not hexadecimal")
        b = int(line, 16)
        if b >> pairs:
            raise ValueError(f"line {lineno}: {b:x} has bits beyond the {pairs} pairs")
        if b & 1:
            raise ValueError(f"line {lineno}: bit 0 set makes the empty set a member")
        if bits and b <= bits[-1]:
            raise ValueError(f"line {lineno}: {b:x} does not ascend from the line before")
        bits.append(b)
    return n, bits
