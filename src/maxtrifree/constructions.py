"""Explicit graph families behind the lower bounds, with exact accounting.

The two-part family puts a perfect matching on the first half of the vertex
set, keeps the second half independent, and joins every independent vertex to
exactly one endpoint of every matching edge; each of the n^2/8 endpoint
choices toggles a distinct edge, so choices map to pairwise distinct
triangle-free graphs.  The r-class generalization additionally places exactly
3 of the 4 edges between matching edges in distinct matched classes, with the
omitted edge an explicit 4-way choice.

A member is built one at a time as a ``Graph`` (``folklore_graph``,
``kr_free_graph``) where it is kept, and many at a time as numpy adjacency
rows where it is only tested: ``folklore_columns`` for the exhaustive folklore
census, ``kr_columns`` for the seeded K_{r+1}-free samples, whose choices
``kr_draw`` draws for ``KrChoice.random`` too.  ``matching_partition_flags``
tests Remark 3's split (a perfect matching plus an independent set) on such
rows, a batch of graphs per candidate set.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .graph import MAX_VERTICES, Graph, GuardError, row_dtype
from .graph6 import encode_graph6
from .report import FAIL, PASS, VerificationReport
from .scan import pair_flags

FOLKLORE_STATS_MAX_N = 12
_MAX_WITNESSES = 5  # members with a triangle written out, as the sample checks keep
# odd 64-bit factors of _member_mix, one per census word (n/4 <= 3 words at n <= 12)
_MIX_FACTORS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)

_HEX = re.compile(r"(0[xX])?[0-9a-fA-F]+")


def _code_from_hex(text: str, width: int) -> int:
    """The code that ``construct --choice`` spells as *text*: hex digits with
    an optional 0x, and nothing else.  Anything that is not one of the
    2^width codes raises ValueError naming the option, the text as typed and
    the range in hex."""
    top = (1 << width) - 1
    if _HEX.fullmatch(text) is None or int(text, 16) > top:
        raise ValueError(f"--choice must be hex in 0x0..{top:#x}, got {text!r}")
    return int(text, 16)


# ---------------------------------------------------------------------------
# Two-part (matching + independent set) family
# ---------------------------------------------------------------------------


def folklore_bit_count(n: int) -> int:
    """Number of binary choices: one per (matching edge, independent vertex)."""
    if n < 0 or n % 4:
        raise ValueError(f"vertex count must be a non-negative multiple of 4, got n={n}")
    return (n // 4) * (n // 2)


@dataclass(frozen=True)
class FolkloreChoice:
    """Endpoint choices indexed row-major by (matching edge, Y vertex)."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = folklore_bit_count(self.n)
        if len(self.bits) != expected:
            raise ValueError(f"need exactly {expected} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("choice bits must be 0 or 1")

    @classmethod
    def from_int(cls, n: int, code: int) -> "FolkloreChoice":
        """Bit i of code (LSB first) is choice i in row-major order."""
        width = folklore_bit_count(n)
        if not 0 <= code < 1 << width:
            raise ValueError(f"code must be in 0..{(1 << width) - 1}, got {code}")
        return cls(n, tuple(code >> i & 1 for i in range(width)))

    @classmethod
    def from_hex(cls, n: int, text: str) -> "FolkloreChoice":
        return cls.from_int(n, _code_from_hex(text, folklore_bit_count(n)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "FolkloreChoice":
        width = folklore_bit_count(n)
        return cls(n, tuple(int(b) for b in rng.integers(0, 2, size=width)))


def _matched_graph(n: int, matching: int, edges) -> Graph:
    """Graph on n vertices: matching edge e is (2e, 2e+1) for e < matching,
    plus the given (x, y) edges."""
    rows = [0] * n
    for x, y in chain(((2 * e, 2 * e + 1) for e in range(matching)), edges):
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return Graph(n, tuple(rows))


def folklore_graph(choice: FolkloreChoice) -> Graph:
    """Build the graph for one choice vector.

    Vertices 0..n/2-1 carry the matching (2i, 2i+1); vertices n/2..n-1 are
    independent; matching edge i sends one edge to independent vertex j, to
    endpoint 2i + bit(i, j).  The result is triangle-free for every choice.
    """
    n = choice.n
    half = n // 2
    return _matched_graph(n, n // 4, (
        (2 * i + choice.bits[i * half + j], half + j)
        for i in range(n // 4) for j in range(half)))


def folklore_columns(n: int, codes: np.ndarray) -> np.ndarray:
    """Adjacency rows of the members with the given codes, built from the bits.

    Row k column x (``row_dtype(n)``) equals
    ``folklore_graph(FolkloreChoice.from_int(n, codes[k])).rows[x]``.  The
    (N, n) array is the transposed view of vertex-major (n, N) columns, so a
    pass over one vertex's rows of every member reads contiguous memory.
    Each matching edge's slice of the codes is cast to ``row_dtype(n)`` once,
    and every later shift and OR works in place on row words, through one
    scratch column.
    """
    half = n // 2
    full = (1 << half) - 1
    codes = np.asarray(codes, dtype=np.int64)
    dtype = row_dtype(n)
    cols = np.zeros((n, len(codes)), dtype=dtype)
    bit = np.empty(len(codes), dtype=dtype)
    for i in range(n // 4):
        a, b = 2 * i, 2 * i + 1
        # bit j: independent vertex half + j joins b
        to_b = (codes >> (i * half) & full).astype(dtype)
        np.bitwise_xor(to_b, full, out=cols[a])
        cols[a] <<= half
        cols[a] |= 1 << b
        np.left_shift(to_b, half, out=cols[b])
        cols[b] |= 1 << a
        for j in range(half):
            np.right_shift(to_b, j, out=bit)
            bit &= 1
            np.left_shift(dtype(1 << a), bit, out=bit)  # 1 << (a + bit j)
            cols[half + j] |= bit
    return cols.T


def _member_mix(words: np.ndarray) -> np.ndarray:
    """A uint64 mix of each row of the (N, k) uint64 *words*, k >= 1: equal
    rows always get equal mixes, and a single word is mixed one-to-one."""
    mix = words[:, 0] * np.uint64(_MIX_FACTORS[0])
    for w in range(1, words.shape[1]):
        mix ^= words[:, w]
        mix *= np.uint64(_MIX_FACTORS[w])
    return mix


def _distinct_members(words: np.ndarray) -> int:
    """The number of distinct rows of the (N, k) uint64 *words*, k >= 1,
    counted exactly from one sort of their mixes.  Equal rows share a mix,
    so a row whose mix no other row has is distinct from every other row;
    only the rows with a tied mix are compared word by word."""
    mix = _member_mix(words)
    ordered = np.sort(mix)
    tied = ordered[1:] == ordered[:-1]
    if not tied.any():
        return len(words)
    shared = words[np.isin(mix, ordered[1:][tied])]
    shared = shared[np.lexsort(shared.T)]
    differ = np.count_nonzero(np.any(shared[1:] != shared[:-1], axis=1))
    return len(words) - len(shared) + 1 + int(differ)


def folklore_family_stats(n: int) -> VerificationReport:
    """Enumerate every choice; count distinct, triangle-free, maximal members.

    Every member is built at once as adjacency columns by folklore_columns,
    and scan.pair_flags flags those with a triangle (an edge whose ends have
    a common neighbour) and those that are not maximal (a non-edge whose ends
    have none); both read the columns vertex by vertex, so each pass is
    contiguous.  Distinct members are counted exactly on one member-major
    uint16 copy of the rows, viewed as n/4 uint64 words per member, each
    packing four vertices' rows at 16 bits apiece (n is a multiple of 4, and
    n <= 12 rows fit 16 bits): one sort of a 64-bit mix of each member's
    words, after which only members whose mixes tie are compared word by
    word, since equal members always share a mix.  The census reads the
    memory behind the (N, n) view it is given, so a member written into that
    array is the member counted.  A Graph is built only for the
    witnesses, the first ``_MAX_WITNESSES`` members with a triangle, from
    the rows that were checked, so a fault in the columns shows in them;
    the counts give the totals.
    """
    if n > FOLKLORE_STATS_MAX_N:
        # every member's rows are held at once: n = 16 would need 2^32 of them
        raise GuardError(
            f"family enumeration holds all members in memory; capped at "
            f"n={FOLKLORE_STATS_MAX_N}, got {n}")
    width = folklore_bit_count(n)
    total = 1 << width
    cols = folklore_columns(n, np.arange(total))
    triangle, not_maximal = pair_flags(cols)
    tf = total - int(np.count_nonzero(triangle))
    maximal = total - int(np.count_nonzero(triangle | not_maximal))
    if n:
        # member k's word w packs its rows 4w..4w+3, 16 bits each (n is a multiple of 4)
        distinct = _distinct_members(
            np.ascontiguousarray(cols, dtype=np.uint16).view(np.uint64))
    else:
        distinct = 1  # n = 0 has one member, with no words to compare
    bad = [encode_graph6(Graph(n, tuple(int(r) for r in cols[k])))
           for k in np.flatnonzero(triangle)[:_MAX_WITNESSES]]
    if distinct != total:
        bad.append(f"distinct={distinct}")
    frac = Fraction(maximal, total)
    status = FAIL if (tf != total or distinct != total) else PASS
    return VerificationReport(
        check_name=f"folklore_stats_n{n}",
        status=status,
        parameters={"n": n, "maximal_fraction": f"{frac.numerator}/{frac.denominator}"},
        counts={
            "total": total,
            "distinct": distinct,
            "triangle_free": tf,
            "maximal": maximal,
        },
        witnesses=bad,
    )


# ---------------------------------------------------------------------------
# r-class K_{r+1}-free family
# ---------------------------------------------------------------------------


def _kr_shape(n: int, r: int) -> tuple[int, int, int]:
    """(class size, matching edges per matched class, matched classes)."""
    if r < 2:
        raise ValueError("need at least 2 classes")
    if n < 0 or n % (2 * r):
        raise ValueError(f"vertex count must be a non-negative multiple of 2r={2 * r}, "
                         f"got n={n}")
    return n // r, n // (2 * r), r - 1


def kr_pair_slots(n: int, r: int) -> list[tuple[int, int]]:
    """Matching-edge pairs from distinct matched classes, lexicographic.

    A matching edge is identified by its global index c * (n/2r) + i for
    class c and in-class index i; slots list index pairs (e, f) with e < f
    from different classes.
    """
    _, per_class, matched = _kr_shape(n, r)
    slots = []
    for c1 in range(matched):
        for c2 in range(c1 + 1, matched):
            for i in range(per_class):
                for j in range(per_class):
                    slots.append((c1 * per_class + i, c2 * per_class + j))
    return slots


def kr_vertex_slots(n: int, r: int) -> list[tuple[int, int]]:
    """(independent vertex, global matching edge index) pairs, lexicographic."""
    class_size, per_class, matched = _kr_shape(n, r)
    base = (r - 1) * class_size
    return [
        (base + y, e)
        for y in range(class_size)
        for e in range(matched * per_class)
    ]


@dataclass(frozen=True)
class KrChoice:
    """Omitted-edge choices between matching edges plus endpoint choices.

    ``pair_choices[k]`` in {0,1,2,3} omits cross edge (endpoint choice of the
    lower-class edge) * 2 + (endpoint choice of the higher-class edge) for the
    k-th slot of kr_pair_slots; ``vertex_choices[k]`` picks the endpoint of
    the matching edge joined to the independent vertex of the k-th slot of
    kr_vertex_slots.
    """

    n: int
    r: int
    pair_choices: tuple[int, ...]
    vertex_choices: tuple[int, ...]

    def __post_init__(self) -> None:
        n_pair = len(kr_pair_slots(self.n, self.r))
        n_vert = len(kr_vertex_slots(self.n, self.r))
        if len(self.pair_choices) != n_pair:
            raise ValueError(f"need {n_pair} pair choices, got {len(self.pair_choices)}")
        if len(self.vertex_choices) != n_vert:
            raise ValueError(f"need {n_vert} vertex choices, got {len(self.vertex_choices)}")
        if any(c not in (0, 1, 2, 3) for c in self.pair_choices):
            raise ValueError("pair choices must be in {0, 1, 2, 3}")
        if any(b not in (0, 1) for b in self.vertex_choices):
            raise ValueError("vertex choices must be 0 or 1")

    @classmethod
    def from_int(cls, n: int, r: int, code: int) -> "KrChoice":
        """Pair choices first (2 bits each, LSB first), then vertex bits."""
        n_pair = len(kr_pair_slots(n, r))
        n_vert = len(kr_vertex_slots(n, r))
        width = 2 * n_pair + n_vert
        if not 0 <= code < 1 << width:
            raise ValueError(f"code must be in 0..{(1 << width) - 1}, got {code}")
        pair = tuple(code >> (2 * k) & 3 for k in range(n_pair))
        rest = code >> (2 * n_pair)
        vert = tuple(rest >> k & 1 for k in range(n_vert))
        return cls(n, r, pair, vert)

    @classmethod
    def from_hex(cls, n: int, r: int, text: str) -> "KrChoice":
        return cls.from_int(n, r, _code_from_hex(text, kr_entropy_check(n, r)))

    @classmethod
    def random(cls, n: int, r: int, rng: np.random.Generator) -> "KrChoice":
        pair, vert = kr_draw(rng, len(kr_pair_slots(n, r)), len(kr_vertex_slots(n, r)))
        return cls(n, r, tuple(pair.tolist()), tuple(vert.tolist()))


def kr_draw(rng: np.random.Generator, n_pair: int, n_vert: int) -> tuple[np.ndarray, np.ndarray]:
    """One member's random choices, the only draw path: *n_pair* pair choices
    in 0..3, then *n_vert* vertex choices in 0..1, both int64 arrays.

    They come from one draw of n_pair + n_vert values in 0..3, the vertex
    choices as the top bit of each tail value.  That equals the two draws
    ``integers(0, 4, size=n_pair)`` then ``integers(0, 2, size=n_vert)``,
    value for value and with the same generator state after: numpy makes
    each value in a range of 2^k from one 32-bit word of the bit generator
    and keeps the word's top k bits (Lemire's method never rejects when the
    range is a power of two), so the word that gives c in 0..3 gives c >> 1
    in 0..1.  One call in place of two halves numpy's per-call overhead,
    most of the cost of the suite's 2,000 small draws.  The suite's sample
    batches are pinned by hash to the two-call draws in the tests.
    """
    codes = rng.integers(0, 4, size=n_pair + n_vert)
    return codes[:n_pair], codes[n_pair:] >> 1


def kr_free_graph(choice: KrChoice) -> Graph:
    """Build the r-class graph for one choice vector.

    Global matching edge e is (2e, 2e+1), so class c holds vertices
    c*(n/r) .. (c+1)*(n/r) - 1 and the independent class comes last, the
    layout of folklore_graph.  The construction contains no K_{r+1}; the
    suite check kr_clique_free_samples tests that on seeded samples.
    """
    n, r = choice.n, choice.r
    _, per_class, matched = _kr_shape(n, r)
    cross = (
        (2 * e1 + s, 2 * e2 + t)
        for (e1, e2), omit in zip(kr_pair_slots(n, r), choice.pair_choices)
        for s in (0, 1) for t in (0, 1) if 2 * s + t != omit)
    single = ((2 * e + bit, y)
              for (y, e), bit in zip(kr_vertex_slots(n, r), choice.vertex_choices))
    return _matched_graph(n, matched * per_class, chain(cross, single))


def kr_columns(n: int, r: int, pair: np.ndarray, vert: np.ndarray) -> np.ndarray:
    """Adjacency rows of the members with the given stacked choices.

    *pair* is (N, pair slots) and *vert* is (N, vertex slots), one member per
    row, as ``KrChoice`` holds them; row k column x equals
    ``kr_free_graph(KrChoice(n, r, pair[k], vert[k])).rows[x]``.  The rows are
    ``row_dtype(n)`` words, as ``folklore_columns`` builds them.
    """
    _, per_class, matched = _kr_shape(n, r)
    if n > MAX_VERTICES:
        raise GuardError(f"K_(r+1)-free rows hold at most {MAX_VERTICES} vertices, got n={n}")
    dtype = row_dtype(n)
    cols = np.zeros((len(pair), n), dtype=dtype)
    for e in range(matched * per_class):
        cols[:, 2 * e] = 1 << (2 * e + 1)
        cols[:, 2 * e + 1] = 1 << (2 * e)
    for k, (e1, e2) in enumerate(kr_pair_slots(n, r)):
        for s in (0, 1):
            for t in (0, 1):
                x, y = 2 * e1 + s, 2 * e2 + t
                kept = (pair[:, k] != 2 * s + t).astype(dtype)
                cols[:, x] |= kept << y
                cols[:, y] |= kept << x
    for k, (y, e) in enumerate(kr_vertex_slots(n, r)):
        bit = vert[:, k].astype(dtype)
        cols[:, y] |= dtype(1) << (bit + 2 * e)
        cols[:, 2 * e] |= (bit ^ 1) << y
        cols[:, 2 * e + 1] |= bit << y
    return cols


def kr_entropy_check(n: int, r: int) -> int:
    """log2 of the number of choice vectors: 2 bits per pair slot plus 1 bit
    per vertex slot.  The suite check kr_entropy_identity compares it with
    (1 - 1/r) n^2 / 4."""
    return 2 * len(kr_pair_slots(n, r)) + len(kr_vertex_slots(n, r))


# ---------------------------------------------------------------------------
# Matching + independent-set partition recognizer
# ---------------------------------------------------------------------------


def matching_partition_flags(adj: np.ndarray) -> np.ndarray:
    """Which graphs of the (N, n) unsigned adjacency rows *adj* split into an
    X with G[X] a perfect matching and an independent V - X.

    Tries the 2^n sets X in turn, each against every graph at once: a vertex
    v in X needs ``adj[:, v] & X`` to be a single bit, and a vertex outside X
    needs ``adj[:, v] & (V - X)`` to be 0.
    """
    n = adj.shape[1]
    sets = np.arange(1 << n, dtype=np.int64)[:, None]
    inside = (sets >> np.arange(n) & 1).astype(bool)  # (2^n, n): v in X
    # per X and v, the side of v whose neighbours are counted: X or V - X
    sides = np.where(inside, sets, ((1 << n) - 1) ^ sets).astype(adj.dtype)
    found = np.zeros(len(adj), dtype=bool)
    for side, need in zip(sides, inside):
        seen = adj & side
        # at most one bit, and one exactly where v is in X
        found |= np.all(((seen & (seen - 1)) == 0) & ((seen != 0) == need), axis=1)
    return found
