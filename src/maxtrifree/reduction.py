"""Reduced graph, auxiliary graph, and the machine-checked counting chain.

An instance is a container graph G, an edge set F whose removal leaves G
triangle-free, and a triangle-free F* subseteq F, each as bit rows on the
same n vertices.  The reduced graph drops F - F* and every edge closing a
triangle with two F* edges; the auxiliary graph T lives on the remaining
non-F* edges, joining two of them whenever some F* edge completes a
triangle with both.  The two checked claims: T is triangle-free, and each
maximal triangle-free H inside the container with E(H) cap F = F* lands
injectively on a maximal independent set of T.

Every non-edge of such an H needs a common neighbour, the pairs outside the
container and the removal edges outside F* included, so H is maximal
triangle-free on the whole vertex set.  Claim 2 and the counting chain
therefore search nothing themselves: they filter one family per n, the
pruned walker's ascending int64 edge masks of every maximal triangle-free
graph on [n] (``enumeration._maximal_masks``, the orbit seeds' leaves
relabeled into all their images), built once and cached read-only
(``_family``).  With g, f and s the masks of G, F and F* (``_masks``, in
``scan.edge_masks``' layout), H lies in the container iff m & ~g is 0 and
has E(H) cap F = F* iff m & f is s.  Building it costs about 3 ms at
n = 8, 15 ms at n = 9, and 0.2 s, 43 MB of masks and a 100 MB peak at
n = 10, ``H_STAR_MAX_N``, the one vertex cap of claim 2, the containment
count and the chain; the chain is also capped at ``CHAIN_MAX_REMOVAL``
removal edges, 2^12 sets F*.

An instance's three fields, F*, the reduced graph and T are tuples of bit
rows, and a ``Graph`` is built only to parse an edge list or to spell out
the worked K4 example.  T's vertices are numbered by the same lexicographic
pair rank as the masks' bits, so with red the reduced graph's mask, claim 2
reads everything about an H off its mask m: an edge outside the reduced
graph is m & ~red, its image E(H) - F* is m & ~s, and the T-vertices that
could join the image are red & ~s & ~(m & ~s).  H is decoded to rows only to
write a witness's graph6.  An instance is checked once, when it is made
(``_check_instance``): each field gets ``Graph``'s row checks
(``graph.check_rows``), then the instance's own.  ``bound_chain`` checks its
container and removal set once, as an instance with F* empty, and runs every
F* on rows.  ``random_instance`` draws a seeded instance as rows, and the
claims suite and ``reduce`` run the same checks on it.
"""
from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass

import numpy as np

from . import enumeration
from .graph import (
    Graph,
    GuardError,
    MAX_VERTICES,
    _edge_mask_rows,
    check_rows,
    find_triangle,
    greedy_triangle_removal,
    is_triangle_free,
    lex_pairs,
    row_pairs,
)
from .graph6 import decode_graph6, encode_graph6_rows
from .mis import mis_count
from .report import FAIL, PASS, VerificationReport, read_utf8

H_STAR_MAX_N = 10
CHAIN_MAX_REMOVAL = 12


class InstanceError(ValueError):
    """A reduction instance violates one of its invariants."""


def _edge_str(u: int, v: int) -> str:
    return f"{u}-{v}"


def _edge_strs(pairs) -> list[str]:
    return [_edge_str(u, v) for u, v in pairs]


def _edges_outside(rows, host_rows) -> list[tuple[int, int]]:
    """The edges of the bit rows *rows* that *host_rows* lacks, in lexicographic order."""
    return row_pairs([row & ~host_row for row, host_row in zip(rows, host_rows)])


def _graph6(rows) -> str:
    """The graph6 string of the bit rows *rows*."""
    return encode_graph6_rows(len(rows), [rows])[:-1].decode("ascii")


def _check_instance(n: int, container, removal, selected) -> None:
    """Raise for the first defect of the instance with these bit rows: a
    ValueError from ``check_rows`` on each field in turn, else an
    InstanceError from the instance's own checks."""
    if len(removal) != len(container) or len(selected) != len(container):
        raise InstanceError("edge sets must live on the container vertex set")
    for rows in (container, removal, selected):
        check_rows(n, rows)
    if any(r & ~c for r, c in zip(removal, container)):
        extra = _edges_outside(removal, container)
        raise InstanceError(f"removal edge {extra[0]} is not in the container")
    if any(s & ~r for s, r in zip(selected, removal)):
        bad = _edges_outside(selected, removal)
        raise InstanceError(f"selected edge {bad[0]} is not in the removal set")
    tri = find_triangle([c & ~r for c, r in zip(container, removal)])
    if tri is not None:
        raise InstanceError(f"container minus removal has triangle {tri}")
    tri = find_triangle(selected)
    if tri is not None:
        raise InstanceError(f"selected set spans triangle {tri}")


@dataclass(frozen=True)
class ReductionInstance:
    """Container G, removal set F, and selected F* subseteq F, as bit-row
    tuples on n vertices, checked once when made."""

    n: int
    container: tuple[int, ...]
    removal: tuple[int, ...]
    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_instance(self.n, self.container, self.removal, self.selected)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "container": _graph6(self.container),
            "removal": _edge_strs(row_pairs(self.removal)),
            "selected": _edge_strs(row_pairs(self.selected)),
        }

    @classmethod
    def from_dict(cls, data) -> "ReductionInstance":
        """The instance of a ``to_dict`` object; InstanceError names the key
        and the entry of any value of the wrong shape."""
        if not isinstance(data, dict):
            raise InstanceError(f"instance must be a JSON object, got {type(data).__name__}")
        for key, kind, what in (("container", str, "a graph6 string"),
                                ("removal", list, "a list of 'u-v' strings"),
                                ("selected", list, "a list of 'u-v' strings")):
            if key not in data:
                raise InstanceError(f"instance has no {key!r} key")
            if not isinstance(data[key], kind):
                raise InstanceError(f"{key!r} must be {what}, got {type(data[key]).__name__}")
        container = decode_graph6(data["container"])

        def parse(key: str) -> tuple[int, ...]:
            pairs = []
            for text in data[key]:
                match = re.fullmatch(r"([0-9]+)-([0-9]+)", text) if isinstance(text, str) else None
                if match is None:
                    raise InstanceError(f"{key!r} entry {text!r} is not a 'u-v' pair of integers")
                pairs.append((int(match[1]), int(match[2])))
            return Graph.from_edges(container.n, pairs).rows

        return cls(container.n, container.rows, parse("removal"), parse("selected"))

    @classmethod
    def load(cls, path) -> "ReductionInstance":
        """The instance in a JSON file; any error in its content names the file."""
        text = read_utf8(path)
        try:
            return cls.from_dict(json.loads(text))
        except ValueError as exc:  # InstanceError, Graph6Error and JSON syntax alike
            raise InstanceError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class AuxiliaryGraph:
    """T, indexed by the pair ranks of ``lex_pairs(n)``: t_rows has one row
    per pair, 0 for a pair that is no T-vertex, and t_n counts the
    T-vertices; with the reduced and F* rows on n vertices."""

    t_rows: tuple[int, ...]
    t_n: int
    reduced_rows: tuple[int, ...]
    selected: tuple[int, ...]


def worked_k4_instance() -> ReductionInstance:
    """K4 with removal {01, 23} and selected {01}; the running example."""
    return ReductionInstance(
        4,
        Graph.complete(4).rows,
        Graph.from_edges(4, [(0, 1), (2, 3)]).rows,
        Graph.from_edges(4, [(0, 1)]).rows,
    )


def build_auxiliary(inst: ReductionInstance) -> AuxiliaryGraph:
    """The auxiliary graph T of an instance; see ``_auxiliary``."""
    return _auxiliary(inst.container, inst.removal, inst.selected)


@functools.cache
def _pair_ranks(n: int) -> tuple[tuple[int, ...], ...]:
    """rank[u][v] = rank[v][u], the index of the pair uv in ``lex_pairs(n)``,
    built once per n and shared read-only."""
    rank = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(lex_pairs(n)):
        rank[u][v] = rank[v][u] = i
    return tuple(map(tuple, rank))


def _auxiliary(container, removal, sel) -> AuxiliaryGraph:
    """T for the F* rows *sel*: vertices are non-selected reduced edges, two
    adjacent iff a selected edge completes a triangle with both.  The reduced
    graph is the container minus (removal - F*) minus every edge closing a
    triangle with two F* edges: row u loses the OR of sel[w] over the F*
    neighbours w of u.  For each F* edge xy, every common neighbour s of x and
    y in the reduced graph joins the T-vertices sx and sy, at their pair
    ranks.  Once no F* edge is lost, sx and sy are T-vertices: were sx in F*,
    sy would close a triangle with sx and xy and so be outside the reduced
    graph.
    """
    red = []
    lost = t_ends = 0  # F* bits missing from the reduced rows; T-vertex ends
    for c, r, s in zip(container, removal, sel):
        doomed = 0
        rest = s
        while rest:
            low = rest & -rest
            doomed |= sel[low.bit_length() - 1]
            rest ^= low
        row = c & ~(r & ~s) & ~doomed
        red.append(row)
        lost |= s & ~row
        t_ends += (row & ~s).bit_count()
    if lost:
        edge = _edges_outside(sel, red)[0]
        raise AssertionError(f"selected edge {edge} was removed from the reduction")
    t_n = t_ends // 2
    if t_n > MAX_VERTICES:
        raise GuardError(
            f"auxiliary graph needs {t_n} vertices, beyond the {MAX_VERTICES} cap")
    n = len(red)
    rank = _pair_ranks(n)
    t_rows = [0] * (n * (n - 1) // 2)
    for x, row in enumerate(sel):
        red_x, rank_x = red[x], rank[x]
        rest = row & (-2 << x)  # the F* edges xy with y > x
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            # sx and sy are T-vertices joined through the selected edge xy
            common = red_x & red[y]
            rank_y = rank[y]
            while common:
                low = common & -common
                common ^= low
                s = low.bit_length() - 1
                i, j = rank_x[s], rank_y[s]
                t_rows[i] |= 1 << j
                t_rows[j] |= 1 << i
    return AuxiliaryGraph(tuple(t_rows), t_n, tuple(red), tuple(sel))


def _shared_selected_edge(e: tuple[int, int], f: tuple[int, int]) -> str:
    """The selected edge witnessing the T-adjacency of the edges e and f, or a
    note that they share no endpoint, so no selected edge can."""
    shared = set(e) & set(f)
    if not shared:
        return f"{_edge_str(*e)} and {_edge_str(*f)} share no endpoint"
    s = shared.pop()
    return _edge_str(*sorted((sum(e) - s, sum(f) - s)))


def verify_claim1(aux: AuxiliaryGraph) -> VerificationReport:
    """Check that T is triangle-free; a failure names the three edges and the
    three selected edges behind them."""
    tri = find_triangle(aux.t_rows)
    counts = {
        "t_vertices": aux.t_n,
        "t_edges": sum(row.bit_count() for row in aux.t_rows) // 2,
        "reduced_edges": sum(row.bit_count() for row in aux.reduced_rows) // 2,
    }
    witnesses: list = []
    if tri is not None:
        pairs = lex_pairs(len(aux.reduced_rows))
        e, f, g = (pairs[x] for x in tri)
        witnesses.append(_edge_strs((e, f, g)) + [
            _shared_selected_edge(e, f),
            _shared_selected_edge(e, g),
            _shared_selected_edge(f, g),
        ])
    return VerificationReport(
        check_name="claim1",
        status=FAIL if tri is not None else PASS,
        parameters={"n": len(aux.reduced_rows), "selected": _edge_strs(row_pairs(aux.selected))},
        counts=counts,
        witnesses=witnesses,
    )


@functools.cache
def _family(n: int) -> np.ndarray:
    """Ascending int64 edge masks of every maximal triangle-free graph on
    [n], from the pruned walker, walked once per n and read-only; n = 0 has
    the one empty graph."""
    if n > H_STAR_MAX_N:
        raise GuardError(f"subgraph search capped at n={H_STAR_MAX_N}, got {n}")
    masks = enumeration._maximal_masks(n) if n else np.zeros(1, dtype=np.int64)
    masks.flags.writeable = False
    return masks


def _masks(*fields) -> list[int]:
    """The lexicographic edge masks of bit-row tuples, laid out as by
    ``scan.edge_masks``: row x's bits above x, shifted down by x + 1, land at
    the rank of (x, x + 1).  Scalar, as numpy's per-call cost on a few rows
    is about ten times the whole conversion."""
    masks = []
    for rows in fields:
        mask = rank = 0
        for x, row in enumerate(rows):
            mask |= row >> (x + 1) << rank
            rank += len(rows) - 1 - x
        masks.append(mask)
    return masks


def _inside(n: int, container: int) -> np.ndarray:
    """The family's masks on [n] that lie inside the container's mask."""
    family = _family(n)
    return family[(family & ~container) == 0]


def _select(masks: np.ndarray, removal: int, selected: int) -> np.ndarray:
    """The masks whose edges in the removal mask are exactly the selected mask."""
    return masks[(masks & removal) == selected]


def enumerate_h_star(inst: ReductionInstance) -> list[int]:
    """The edge masks, in ``scan.edge_masks``' layout, of every maximal
    triangle-free H on the container's vertex set with H subseteq container
    and E(H) cap removal = selected.

    H is maximal on the whole vertex set, so H(F*) is a selection from the
    cached family: the masks inside the container whose removal edges are
    exactly F*, in the family's ascending order, with no sort.  With g, f
    and s the container's, removal's and F*'s masks, one test selects them:
    h & (~g | f) == s.  A checked instance has s within f within g, so from
    that test h & ~g lies in s & ~g, which is empty, and then h & f = s & f
    = s; the converse is immediate.
    """
    g, f, s = _masks(inst.container, inst.removal, inst.selected)
    family = _family(inst.n)
    return family[(family & (~g | f)) == s].tolist()


def _image_problem(t_rows, pairs, m: int, red: int, s: int) -> list[str]:
    """Why the image m & ~s of the H with edge mask m is not a maximal
    independent set of T, with red and s the reduced graph's and F*'s masks:
    an edge outside the reduced graph, a T-edge inside the image, or a
    T-vertex it could gain; empty if it is one."""
    outside = m & ~red
    if outside:
        return [f"edge {_edge_str(*pairs[(outside & -outside).bit_length() - 1])} "
                "outside reduced graph"]
    word = rest = m & ~s
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        hit = t_rows[i] & word
        if hit:
            e, f = pairs[i], pairs[(hit & -hit).bit_length() - 1]
            return [_edge_str(*e), _edge_str(*f), _shared_selected_edge(e, f)]
        rest ^= low
    rest = red & ~s & ~word
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        if t_rows[i] & word == 0:
            return [f"addable edge {_edge_str(*pairs[i])}"]
        rest ^= low
    return []


def verify_claim2(inst: ReductionInstance) -> VerificationReport:
    """Check that H -> E(H) - F* maps the family injectively onto maximal
    independent sets of T, and record the slack against mis_count(T)."""
    aux = build_auxiliary(inst)
    family = enumerate_h_star(inst)
    red, s = _masks(aux.reduced_rows, aux.selected)
    pairs = lex_pairs(inst.n)
    witnesses: list = []
    images: list[int] = []
    for m in family:
        problem = _image_problem(aux.t_rows, pairs, m, red, s)
        if problem:
            witnesses.append([_graph6(_edge_mask_rows(inst.n, m))] + problem)
        else:
            images.append(m & ~s)
    if len(set(images)) != len(images):
        witnesses.append(["duplicate edge-set image"])
    mis_t = mis_count(aux.t_rows)
    if not witnesses and len(family) > mis_t:
        witnesses.append([f"family size {len(family)} exceeds mis count {mis_t}"])
    ok = not witnesses
    return VerificationReport(
        check_name="claim2",
        status=PASS if ok else FAIL,
        parameters={"n": len(aux.reduced_rows), "selected": _edge_strs(row_pairs(aux.selected))},
        counts={
            "h_star": len(family),
            "mis_count_t": mis_t,
            "slack": mis_t - len(family),
            "t_vertices": aux.t_n,
        },
        witnesses=witnesses,
    )


def maximal_tf_subgraph_count(container) -> int:
    """Number of maximal triangle-free graphs lying inside the container's
    bit rows (n = len(container)): the cached family's masks inside the
    container's mask."""
    return len(_inside(len(container), *_masks(container)))


def bound_chain(container, removal) -> VerificationReport:
    """Run the pipeline for every triangle-free F* subseteq removal and check
    the per-term inequalities plus the partition identity.  F* runs over the
    submasks s of the removal mask f in ascending order, s = (s - f) & f,
    which is the binary counter on the removal edges in lexicographic order.

    G and F are bit rows, n = len(container), checked once as an instance
    with F* empty; each F* then runs on the bit rows of its mask through
    ``_auxiliary``, and |H(F*)| counts the masks of the family inside the
    container whose removal edges are exactly F*.
    Per F*: |H(F*)| <= mis_count(T), mis_count(T)^2 <= 2^{|V(T)|}, and
    |V(T)| <= e(container).  Summing |H(F*)| over all F* must give exactly
    the number of maximal triangle-free subgraphs of the container, so the
    identity checks the F* enumeration and the selection against the
    containment count.  The family caps n at ``H_STAR_MAX_N``, and more than
    ``CHAIN_MAX_REMOVAL`` removal edges raise GuardError.
    """
    n = len(container)
    edges = row_pairs(removal)
    if len(edges) > CHAIN_MAX_REMOVAL:
        raise GuardError(
            f"bound chain capped at {CHAIN_MAX_REMOVAL} removal edges, got {len(edges)}")
    _check_instance(n, container, removal, (0,) * n)
    g, f = _masks(container, removal)
    inside = _inside(n, g)
    e_container = sum(row.bit_count() for row in container) // 2
    total = 0
    tf_subsets = 0
    witnesses: list = []
    s = f  # so that the first step gives F* = {}
    for _ in range(1 << len(edges)):
        s = (s - f) & f
        rows = _edge_mask_rows(n, s)
        if not is_triangle_free(rows):
            continue
        tf_subsets += 1
        aux = _auxiliary(container, removal, rows)
        h_count = len(_select(inside, f, s))
        mis_t = mis_count(aux.t_rows)
        t_n = aux.t_n
        for broken, why in ((h_count > mis_t, f"h_star {h_count} > mis {mis_t}"),
                            (mis_t * mis_t > 1 << t_n, f"mis {mis_t} breaks 2^({t_n}/2)"),
                            (t_n > e_container, f"|V(T)|={t_n} > e(G)={e_container}")):
            if broken:
                witnesses.append([f"F*={_edge_strs(row_pairs(rows))}", why])
        total += h_count
    direct = maximal_tf_subgraph_count(container)
    if total != direct:
        witnesses.append([f"partition sum {total} != direct count {direct}"])
    return VerificationReport(
        check_name="bound_chain",
        status=FAIL if witnesses else PASS,
        parameters={"n": n, "removal": _edge_strs(edges)},
        counts={
            "fstar_subsets": 1 << len(edges),
            "fstar_triangle_free": tf_subsets,
            "sum_h_star": total,
            "maximal_tf_subgraphs": direct,
            "container_edges": e_container,
        },
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------


def random_graph(n: int, p: float, rng: np.random.Generator) -> tuple[int, ...]:
    """Bit rows of a labeled G(n, p): each pair flips one coin, in lexicographic order."""
    rows = [0] * n
    pairs = lex_pairs(n)
    for (u, v), coin in zip(pairs, rng.random(len(pairs)).tolist()):
        if coin < p:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def random_tf_subset(rows, rng: np.random.Generator) -> tuple[int, ...]:
    """Bit rows of a random triangle-free subgraph of the bit rows *rows*, by
    randomized greedy insertion: visit the edges in a random order, keep each
    with probability 1/2 when insertion preserves triangle-freeness."""
    edges = row_pairs(rows)
    order = rng.permutation(len(edges))
    coins = rng.random(len(edges))  # one double per edge, as len(edges) scalar draws give
    kept = [0] * len(rows)
    for idx, coin in zip(order.tolist(), coins.tolist()):
        u, v = edges[idx]
        if coin < 0.5 and kept[u] & kept[v] == 0:
            kept[u] |= 1 << v
            kept[v] |= 1 << u
    return tuple(kept)


EDGE_PROBABILITIES = (0.3, 0.5, 0.8)


def random_instance(rng: np.random.Generator, *, n_min: int = 4, n_max: int = 8,
                    ) -> ReductionInstance:
    """The one seeded draw: n, then p in {0.3, 0.5, 0.8}, the container's
    coins for G(n, p), and the order and coins of a random triangle-free
    subset of the removal set, which is the greedy triangle removal of the
    container."""
    if n_max < n_min:
        raise ValueError(f"n_max={n_max} is below n_min={n_min}")
    n = int(rng.integers(n_min, n_max + 1))
    p = EDGE_PROBABILITIES[int(rng.integers(len(EDGE_PROBABILITIES)))]
    container = random_graph(n, p, rng)
    removal = greedy_triangle_removal(container)
    return ReductionInstance(n, container, removal, random_tf_subset(removal, rng))
