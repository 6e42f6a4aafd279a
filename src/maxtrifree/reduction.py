"""Reduced graph, auxiliary graph, and the machine-checked counting chain.

An instance is a container graph G, an edge set F whose removal leaves G
triangle-free, and a triangle-free F* subseteq F; F and F* are graphs on G's
vertices.  The reduced graph drops F - F* and every edge closing a triangle
with two F* edges; the auxiliary graph T lives on the remaining non-F* edges,
joining two of them whenever some F* edge completes a triangle with both.
The two checked claims: T is triangle-free, and each maximal triangle-free H
inside the container with E(H) cap F = F* lands injectively on a maximal
independent set of T.

Claim 2 and the counting chain share one depth-first search over the free
container edges (``_maximal_tf_leaves``).  Its state is one bit row per
vertex, pot: the edges so far plus the undecided free partners, that is the
neighbours a vertex can still have.  It adds an edge only when its ends have
no common neighbour, which changes no pot, and it cuts a branch as soon as
some non-edge has no common neighbour left in the two pots.  Deciding a pair
absent takes one bit out of the pots of its two ends only, so the search
re-checks just the non-edges that can have lost their last possible common
neighbour.  Leaves need no test: they are triangle-free by construction, and
once nothing is undecided, pot is the graph and the cut is exactly the
maximality condition.

Everything works on the graphs' adjacency bit rows: edge lists, the reduced
graph and T's image words come from masked row words, not from per-edge
queries, and a T-vertex's index is a popcount of its row's T-vertices below
it, not a dictionary lookup.  The only ``Graph``s are an instance's three
fields and the graphs a witness writes out; F*, the reduced graph, T and
each H* are tuples of bit rows.  ``bound_chain`` checks its container and
removal set once, as an instance with F* empty does, and runs every F* on
rows.

A seeded instance is drawn once, as bit rows (``_draw_instance_rows``).
``random_instance`` builds the checked instance from them; a block of
streams (``random_instance_rows``) is checked at once, in numpy, and an
instance is built only for a draw the block test flags, so it raises the
error ``random_instance`` would.  The claim checks then run on the rows:
claim 1 on ``_auxiliary``, claim 2 on ``verify_claim2_rows``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .graph import (
    Graph,
    GuardError,
    MAX_VERTICES,
    find_triangle,
    greedy_triangle_removal,
    is_triangle_free,
    iter_bits,
    lex_pairs,
    row_pairs,
)
from .graph6 import decode_graph6, encode_graph6
from .mis import mis_count
from .report import FAIL, PASS, VerificationReport, read_utf8
from .scan import pair_flags

H_STAR_MAX_N = 10
CHAIN_MAX_N = 8
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


def _check_instance(container: Graph, removal: Graph, sel) -> None:
    """Raise InstanceError for the first defect of the instance with F* rows *sel*."""
    n = container.n
    if removal.n != n or len(sel) != n:
        raise InstanceError("edge sets must live on the container vertex set")
    if any(r & ~c for r, c in zip(removal.rows, container.rows)):
        extra = _edges_outside(removal.rows, container.rows)
        raise InstanceError(f"removal edge {extra[0]} is not in the container")
    if any(s & ~r for s, r in zip(sel, removal.rows)):
        bad = _edges_outside(sel, removal.rows)
        raise InstanceError(f"selected edge {bad[0]} is not in the removal set")
    tri = find_triangle([c & ~r for c, r in zip(container.rows, removal.rows)])
    if tri is not None:
        raise InstanceError(f"container minus removal has triangle {tri}")
    tri = find_triangle(sel)
    if tri is not None:
        raise InstanceError(f"selected set spans triangle {tri}")


@dataclass(frozen=True)
class ReductionInstance:
    """Container G, removal set F, and selected F* subseteq F."""

    container: Graph
    removal: Graph
    selected: Graph

    def __post_init__(self) -> None:
        _check_instance(self.container, self.removal, self.selected.rows)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "container": encode_graph6(self.container),
            "removal": _edge_strs(self.removal.edges()),
            "selected": _edge_strs(self.selected.edges()),
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

        def parse(key: str) -> Graph:
            pairs = []
            for text in data[key]:
                match = re.fullmatch(r"([0-9]+)-([0-9]+)", text) if isinstance(text, str) else None
                if match is None:
                    raise InstanceError(f"{key!r} entry {text!r} is not a 'u-v' pair of integers")
                pairs.append((int(match[1]), int(match[2])))
            return Graph.from_edges(container.n, pairs)

        return cls(container, parse("removal"), parse("selected"))

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
    """T's rows, the reduced edge behind each T-vertex, and the reduced and F* rows."""

    t_rows: tuple[int, ...]
    vertex_to_edge: tuple[tuple[int, int], ...]
    reduced_rows: tuple[int, ...]
    selected: tuple[int, ...]


def worked_k4_instance() -> ReductionInstance:
    """K4 with removal {01, 23} and selected {01}; the running example."""
    return ReductionInstance(
        Graph.complete(4),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(4, [(0, 1)]),
    )


def build_auxiliary(inst: ReductionInstance) -> AuxiliaryGraph:
    """The auxiliary graph T of an instance; see ``_auxiliary``."""
    return _auxiliary(inst.container.rows, inst.removal.rows, inst.selected.rows)


def _auxiliary(container, removal, sel) -> AuxiliaryGraph:
    """T for the F* rows *sel*: vertices are non-selected reduced edges, two
    adjacent iff a selected edge completes a triangle with both.  The reduced
    graph is the container minus (removal - F*) minus every edge closing a
    triangle with two F* edges: row u loses the OR of sel[w] over the F*
    neighbours w of u.  For each F* edge xy, every common neighbour s of x and
    y in the reduced graph joins the T-vertices sx and sy.

    T-vertices are numbered by rank: with up[a] the T-vertices (a, b), b > a,
    as a bit row, (a, b) is vertex off[a] + popcount(up[a] below b), where
    off[a] counts the T-vertices of the rows above a.  Once no F* edge is
    lost, sx and sy are T-vertices: were sx in F*, sy would close a triangle
    with sx and xy and so be outside the reduced graph.
    """
    red = []
    for c, r, s in zip(container, removal, sel):
        doomed = 0
        rest = s
        while rest:
            low = rest & -rest
            doomed |= sel[low.bit_length() - 1]
            rest ^= low
        red.append(c & ~(r & ~s) & ~doomed)
    if any(s & ~r for s, r in zip(sel, red)):
        lost = _edges_outside(sel, red)
        raise AssertionError(f"selected edge {lost[0]} was removed from the reduction")
    off = []
    up = []
    t_n = 0
    for a, (r, s) in enumerate(zip(red, sel)):
        row = r & ~s & (-2 << a)
        off.append(t_n)
        up.append(row)
        t_n += row.bit_count()
    if t_n > MAX_VERTICES:
        raise GuardError(
            f"auxiliary graph needs {t_n} vertices, beyond the {MAX_VERTICES} cap")
    t_rows = [0] * t_n
    for x, y in row_pairs(sel):
        # sx and sy are T-vertices joined through the selected edge xy
        common = red[x] & red[y]
        while common:
            low = common & -common
            common ^= low
            s = low.bit_length() - 1
            a, b = (s, x) if s < x else (x, s)
            i = off[a] + (up[a] & ((1 << b) - 1)).bit_count()
            a, b = (s, y) if s < y else (y, s)
            j = off[a] + (up[a] & ((1 << b) - 1)).bit_count()
            t_rows[i] |= 1 << j
            t_rows[j] |= 1 << i
    return AuxiliaryGraph(tuple(t_rows), tuple(row_pairs(up)), tuple(red), tuple(sel))


def _shared_selected_edge(aux: AuxiliaryGraph, i: int, j: int) -> str:
    """The selected edge witnessing the T-adjacency of T-vertices i and j, or
    a note that their edges share no endpoint, so no selected edge can."""
    u1, v1 = aux.vertex_to_edge[i]
    u2, v2 = aux.vertex_to_edge[j]
    shared = {u1, v1} & {u2, v2}
    if not shared:
        return f"{_edge_str(u1, v1)} and {_edge_str(u2, v2)} share no endpoint"
    s = shared.pop()
    return _edge_str(*sorted((u1 + v1 - s, u2 + v2 - s)))


def verify_claim1(aux: AuxiliaryGraph) -> VerificationReport:
    """Check that T is triangle-free; a failure names the three edges and the
    three selected edges behind them."""
    tri = find_triangle(aux.t_rows)
    counts = {
        "t_vertices": len(aux.t_rows),
        "t_edges": sum(row.bit_count() for row in aux.t_rows) // 2,
        "reduced_edges": sum(row.bit_count() for row in aux.reduced_rows) // 2,
    }
    witnesses: list = []
    if tri is not None:
        i, j, k = tri
        edges = [_edge_str(*aux.vertex_to_edge[x]) for x in tri]
        ds = [
            _shared_selected_edge(aux, i, j),
            _shared_selected_edge(aux, i, k),
            _shared_selected_edge(aux, j, k),
        ]
        witnesses.append(edges + ds)
    return VerificationReport(
        check_name="claim1",
        status=FAIL if tri is not None else PASS,
        parameters={"n": len(aux.reduced_rows), "selected": _edge_strs(row_pairs(aux.selected))},
        counts=counts,
        witnesses=witnesses,
    )


def _maximal_tf_leaves(n: int, free: list[tuple[int, int]],
                       seed_rows) -> list[tuple[int, ...]]:
    """Rows of every maximal triangle-free graph made of the triangle-free
    seed plus some subset of the free pairs; every other pair is a fixed
    non-edge.

    The free pairs (u, v), u < v, are decided from the highest lexicographic
    rank down, absent before present, so the leaves come out in ascending
    edge-mask order (see ``enumerate_h_star``).  One bit row per vertex
    carries the state: ``pot[x]``, x's edges so far plus its undecided free
    partners, the neighbours x can still have.  x's non-edges, fixed ones
    included, are the rest, ``full & ~(bit x | pot[x])``.  At level k the
    undecided partners are those in ``free[k:]``, so x's adjacency is pot[x]
    without them; the masks that drop them from the rows of u and v are made
    once per level, before the search.

    A pair goes in only when its ends have no common neighbour; deciding it
    present changes no pot, since its ends already counted each other.  A
    branch lives while every non-edge xw still has a possible common
    neighbour, a bit of pot[x] & pot[w]; every non-edge is checked once at
    the root.  Deciding (u, v) absent takes v out of pot[u] and u out of
    pot[v] and leaves every other pot as it was, so only three kinds of
    non-edge can lose their last possible common neighbour: uv itself, uw
    with v in pot[w], and vw with u in pot[w].  As pot is symmetric, these w
    are the new pot[v] minus pot[u], and pot[u] minus pot[v], and the absent
    branch re-checks just these three kinds.  At a leaf nothing is
    undecided, so pot is the graph.
    """
    if n > H_STAR_MAX_N:
        raise GuardError(f"subgraph search capped at n={H_STAR_MAX_N}, got {n}")
    free = sorted(free, reverse=True)
    pot = list(seed_rows)
    for u, v in free:
        pot[u] |= 1 << v
        pot[v] |= 1 << u
    full = (1 << n) - 1
    last = len(free)
    # per level: the pair, its two bits, and the masks whose AND with pot[u]
    # and pot[v] are their adjacencies there, as free[k:] is undecided
    levels = [()] * last
    und = [0] * n
    for k in range(last - 1, -1, -1):
        u, v = free[k]
        bu, bv = 1 << u, 1 << v
        und[u] |= bv
        und[v] |= bu
        levels[k] = (u, v, bu, bv, full & ~und[u], full & ~und[v])
    leaves: list[tuple[int, ...]] = []

    def rec(k: int) -> None:
        if k == last:
            leaves.append(tuple(pot))
            return
        u, v, bu, bv, keep_u, keep_v = levels[k]
        pot_u = pot[u] ^ bv  # the pots once (u, v) is absent
        pot_v = pot[v] ^ bu
        if pot_u & pot_v:
            rest = pot_v & ~pot_u  # w with uw a non-edge and v in pot[w]
            while rest:
                low = rest & -rest
                if not pot_u & pot[low.bit_length() - 1]:
                    break
                rest ^= low
            else:
                rest = pot_u & ~pot_v
                while rest:
                    low = rest & -rest
                    if not pot_v & pot[low.bit_length() - 1]:
                        break
                    rest ^= low
                else:
                    pot[u] = pot_u
                    pot[v] = pot_v
                    rec(k + 1)
                    pot[u] = pot_u | bv
                    pot[v] = pot_v | bu
        if not pot[u] & keep_u & pot[v] & keep_v:
            rec(k + 1)

    if all(pot[x] & pot[w] for x in range(n) for w in iter_bits(full & ~(1 << x | pot[x]))):
        rec(0)
    return leaves


def enumerate_h_star(inst: ReductionInstance) -> list[tuple[int, ...]]:
    """The bit rows of every maximal triangle-free H on the container's
    vertex set with H subseteq container and E(H) cap removal = selected.

    ``_maximal_tf_leaves`` decides the container edges outside the removal
    set, seeded with the selected edges; the removal edges outside F* and
    the pairs outside the container are its fixed non-edges.  Besides the
    triangle rule it prunes forward: a branch dies once some non-edge can no
    longer gain a common neighbour.  Leaves need no test: every added edge
    had no common neighbour, so H is triangle-free, and with nothing left
    undecided the prune is exactly the common-neighbour condition.
    Distinct decision paths give distinct H.  They come out by ascending
    edge bitmask over the lexicographic pair ranks, with no sort: the search
    fixes the most significant undecided bit first and tries 0 before 1, and
    the other bits, F* and the fixed non-edges, are the same in every leaf.
    """
    free = _edges_outside(inst.container.rows, inst.removal.rows)
    return _maximal_tf_leaves(inst.container.n, free, inst.selected.rows)


def _image_word(aux: AuxiliaryGraph, h: tuple[int, ...]) -> tuple[int, list | None]:
    """Map E(H) - F* to a T bit word, bit i for T-vertex (u, v) read off
    h[u]; an edge outside the reduced graph is a counterexample."""
    if any(hr & ~rr for hr, rr in zip(h, aux.reduced_rows)):
        outside = _edges_outside(h, aux.reduced_rows)
        return 0, [encode_graph6(Graph(len(h), h)),
                   f"edge {_edge_str(*outside[0])} outside reduced graph"]
    word = 0
    for i, (u, v) in enumerate(aux.vertex_to_edge):
        if h[u] >> v & 1:
            word |= 1 << i
    return word, None


def _mis_violation(aux: AuxiliaryGraph, h: tuple[int, ...], word: int) -> list | None:
    """Witness if word is not a maximal independent set of T, else None."""
    t_rows = aux.t_rows
    for i in iter_bits(word):
        hit = t_rows[i] & word
        if hit:
            j = (hit & -hit).bit_length() - 1
            return [
                encode_graph6(Graph(len(h), h)),
                _edge_str(*aux.vertex_to_edge[i]),
                _edge_str(*aux.vertex_to_edge[j]),
                _shared_selected_edge(aux, i, j),
            ]
    for i, row in enumerate(t_rows):
        if not word >> i & 1 and row & word == 0:
            addable = _edge_str(*aux.vertex_to_edge[i])
            return [encode_graph6(Graph(len(h), h)), f"addable edge {addable}"]
    return None


def verify_claim2(inst: ReductionInstance) -> VerificationReport:
    """Check that H -> E(H) - F* maps the family injectively onto maximal
    independent sets of T, and record the slack against mis_count(T)."""
    return _claim2(build_auxiliary(inst), enumerate_h_star(inst))


def verify_claim2_rows(n: int, container, removal, sel) -> VerificationReport:
    """``verify_claim2`` on the bit rows of an instance known to be valid,
    such as a draw of ``random_instance_rows``."""
    free = _edges_outside(container, removal)
    return _claim2(_auxiliary(container, removal, sel), _maximal_tf_leaves(n, free, sel))


def _claim2(aux: AuxiliaryGraph, family: list[tuple[int, ...]]) -> VerificationReport:
    """Claim 2's report for T and the rows of the H* family."""
    witnesses: list = []
    images: list[int] = []
    for h in family:
        word, problem = _image_word(aux, h)
        if problem is None:
            problem = _mis_violation(aux, h, word)
        if problem is not None:
            witnesses.append(problem)
        else:
            images.append(word)
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
            "t_vertices": len(aux.t_rows),
        },
        witnesses=witnesses,
    )


def maximal_tf_subgraph_count(container: Graph) -> int:
    """Number of maximal triangle-free graphs lying inside the container:
    the same search as ``enumerate_h_star`` from the empty graph, with every
    container edge free."""
    n = container.n
    return len(_maximal_tf_leaves(n, container.edges(), [0] * n))


def bound_chain(container: Graph, removal: Graph) -> VerificationReport:
    """Run the pipeline for every triangle-free F* subseteq removal and check
    the per-term inequalities plus the partition identity.  F* runs over the
    binary counter on the removal edges in lexicographic order.

    G and F are checked once, with F* empty; each F* then runs on bit rows,
    through ``_auxiliary`` and ``_maximal_tf_leaves`` over the free pairs.
    Per F*: |H(F*)| <= mis_count(T), mis_count(T)^2 <= 2^{|V(T)|}, and
    |V(T)| <= e(container).  Summing |H(F*)| over all F* must give exactly
    the number of maximal triangle-free subgraphs of the container.
    """
    n = container.n
    if n > CHAIN_MAX_N:
        raise GuardError(f"bound chain capped at n={CHAIN_MAX_N}, got {n}")
    edges = removal.edges()
    if len(edges) > CHAIN_MAX_REMOVAL:
        raise GuardError(
            f"bound chain capped at {CHAIN_MAX_REMOVAL} removal edges, got {len(edges)}")
    _check_instance(container, removal, (0,) * n)
    free = _edges_outside(container.rows, removal.rows)
    e_container = container.edge_count()
    total = 0
    tf_subsets = 0
    witnesses: list = []
    for code in range(1 << len(edges)):
        rows = [0] * n
        for i, (u, v) in enumerate(edges):
            if code >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if not is_triangle_free(rows):
            continue
        tf_subsets += 1
        t_rows = _auxiliary(container.rows, removal.rows, rows).t_rows
        h_count = len(_maximal_tf_leaves(n, free, rows))
        mis_t = mis_count(t_rows)
        t_n = len(t_rows)
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

#: One drawn instance as bit rows: (n, container, removal, selected).
InstanceRows = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _draw_instance_rows(rng: np.random.Generator, n_min: int, n_max: int) -> InstanceRows:
    """The one seeded draw: n, then p in {0.3, 0.5, 0.8}, the container's
    coins, and the selected subset's order and coins; the removal set is the
    greedy triangle removal of the container."""
    if n_max < n_min:
        raise ValueError(f"n_max={n_max} is below n_min={n_min}")
    n = int(rng.integers(n_min, n_max + 1))
    p = EDGE_PROBABILITIES[int(rng.integers(len(EDGE_PROBABILITIES)))]
    container = random_graph(n, p, rng)
    removal = greedy_triangle_removal(container)
    return n, container, removal, random_tf_subset(removal, rng)


def instance_from_rows(n: int, container, removal, selected) -> ReductionInstance:
    """The instance with these bit rows, checked: a defect raises ValueError
    from ``Graph`` or InstanceError from the instance."""
    return ReductionInstance(Graph(n, container), Graph(n, removal), Graph(n, selected))


def random_instance(rng: np.random.Generator, *, n_min: int = 4, n_max: int = 8,
                    ) -> ReductionInstance:
    """Container ~ G(n, p) with p in {0.3, 0.5, 0.8}; removal from the greedy
    triangle removal; selected a random triangle-free subset of it."""
    return instance_from_rows(*_draw_instance_rows(rng, n_min, n_max))


def _defect_flags(draws: list[InstanceRows]) -> np.ndarray:
    """Which drawn instances break an invariant that ``instance_from_rows``
    checks, tested for the whole block at once.

    The rows are padded with isolated vertices to the block's largest n, as
    uint64 words, so each field is an (N, width) array; a padded vertex has
    no edge and adds no triangle.  ``Graph``'s row checks: no bit at or past
    the instance's n, no self-loop and a symmetric adjacency, read off the
    unpacked (N, 3, width, width) bits.  The instance's: removal within the
    container, selected within the removal set, and no triangle in the
    container minus the removal set or in the selected set, by
    ``scan.pair_flags``.
    """
    width = max((n for n, *_ in draws), default=0)
    pad = [(0,) * (width - n) for n in range(width + 1)]
    rows = np.array([row for n, *fields in draws for field in fields
                     for row in field + pad[n]], dtype=np.uint64).reshape(len(draws), 3, width)
    full = np.array([(1 << n) - 1 for n, *_ in draws], dtype=np.uint64)
    bits = rows[..., None] >> np.arange(width, dtype=np.uint64) & np.uint64(1)
    container, removal, selected = rows[:, 0], rows[:, 1], rows[:, 2]
    return (np.any(rows & ~full[:, None, None], axis=(1, 2))
            | np.any(np.diagonal(bits, axis1=2, axis2=3), axis=(1, 2))
            | np.any(bits != bits.swapaxes(2, 3), axis=(1, 2, 3))
            | np.any(removal & ~container | selected & ~removal, axis=1)
            | pair_flags(container & ~removal)[0]
            | pair_flags(selected)[0])


def random_instance_rows(rngs, *, n_min: int = 4, n_max: int = 8) -> list[InstanceRows]:
    """The bit rows of ``random_instance(rng)`` for each generator of *rngs*,
    in order, drawn with no ``Graph`` or instance each.

    The block's invariants are tested in one numpy pass (``_defect_flags``),
    and a flagged instance is built by ``instance_from_rows``, so it raises
    the error ``random_instance`` would have raised for it.
    """
    draws = [_draw_instance_rows(rng, n_min, n_max) for rng in rngs]
    for k in np.flatnonzero(_defect_flags(draws)).tolist():
        instance_from_rows(*draws[k])
    return draws
