"""Naive reference implementations used as independent oracles in tests.

Most of these work on explicit edge lists / vertex sets with itertools,
deliberately avoiding the package's bit tricks so the two routes share no
code path.  The scalar walker, the folklore census and the mask-by-mask
brute-force scan are the slow twins of the batched numpy paths: they use
Python integers and the package's scalar Graph primitives, which the numpy
paths do not call.  The line-by-line graph6 reader is the slow twin of
``read_graph6_file``'s block reader, and the scalar matching-partition
recognizer that of the batched ``matching_partition_flags``.

The small graph builders and helpers at the top serve only the tests, so
they live here and not in the package, as does ``min_triangles_at_density``,
the exact extremal table behind the Mantel acceptance criterion.
"""
import json
from functools import lru_cache
from itertools import combinations

from maxtrifree import (
    FolkloreChoice,
    Graph,
    GuardError,
    decode_graph6,
    encode_graph6,
    folklore_graph,
    graph_from_edge_mask,
    is_maximal_triangle_free,
    is_triangle_free,
)
from maxtrifree.constructions import folklore_bit_count
from maxtrifree.enumeration import _maximal_masks


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def edge_list(g) -> list[tuple[int, int]]:
    """All edges of g as pairs (u, v) with u < v, in lexicographic order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.rows[u] >> v & 1]


def degree(g, u: int) -> int:
    return sum(u in e for e in edge_list(g))


def has_edge(g, u: int, v: int) -> bool:
    return bool(g.rows[u] >> v & 1)


def without_edges(g, pairs) -> Graph:
    gone = {frozenset(e) for e in pairs}
    return Graph.from_edges(g.n, [e for e in edge_list(g) if frozenset(e) not in gone])


def with_edge(g, u: int, v: int) -> Graph:
    return Graph.from_edges(g.n, edge_list(g) + [(u, v)])


def relabel(g, perm) -> Graph:
    """Image of g under the vertex relabeling u -> perm[u]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in edge_list(g)])


#: Instance dicts of the wrong shape, each with the text its InstanceError names.
MALFORMED_INSTANCES = [
    (7, "instance must be a JSON object, got int"),
    (["C~"], "instance must be a JSON object, got list"),
    ({"container": 5, "removal": [], "selected": []}, "'container' must be a graph6 string"),
    ({"container": "C~", "removal": None, "selected": []}, "'removal' must be a list"),
    ({"container": "C~", "removal": [], "selected": "0-1"}, "'selected' must be a list"),
    ({"container": "C~", "removal": [1], "selected": []}, "'removal' entry 1 is not"),
    ({"container": "C~", "removal": ["0-1-2"], "selected": []}, "'removal' entry '0-1-2' is not"),
    ({"container": "C~", "removal": ["0-1"], "selected": ["0-x"]},
     "'selected' entry '0-x' is not"),
    ({"container": "C~", "removal": ["-1-2"], "selected": []}, "'removal' entry '-1-2' is not"),
]


def dump_instance(inst, path) -> None:
    """Write a reduction instance as the JSON file ReductionInstance.load reads."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(inst.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def brute_force_maximal_tf_scalar(n: int) -> list[Graph]:
    """Reference for enumeration.brute_force_maximal_tf: every edge mask's
    rows, one mask at a time in ascending order (bit p is pair p of
    ``combinations(range(n), 2)``), through the scalar
    ``is_maximal_triangle_free``; a Graph for each that passes."""
    found = []
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for p, (u, v) in enumerate(pairs):
            if mask >> p & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if is_maximal_triangle_free(rows):
            found.append(Graph(n, tuple(rows)))
    return found


def maximal_tf_family(n: int) -> list[Graph]:
    """The walker's maximal triangle-free graphs on [n] as Graphs, ascending by
    edge bitmask, for a graph-by-graph comparison with the brute-force oracle."""
    return [graph_from_edge_mask(n, int(m)) for m in _maximal_masks(n)]


def edge_mask(g) -> int:
    """Edges as a bitmask over lexicographic pair ranks (see lex_pairs)."""
    ranks = {pair: i for i, pair in enumerate(combinations(range(g.n), 2))}
    return sum(1 << ranks[e] for e in edge_list(g))


def edge_set(g):
    return {frozenset(e) for e in edge_list(g)}


def naive_triangles(g) -> int:
    edges = edge_set(g)
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if {a, b} in edges and {a, c} in edges and {b, c} in edges
    )


def naive_is_maximal_tf(g) -> bool:
    edges = edge_set(g)
    return naive_is_maximal_tf_nbrs(
        [{w for w in range(g.n) if {v, w} in edges} for v in range(g.n)])


def naive_is_maximal_tf_nbrs(nbrs) -> bool:
    """naive_is_maximal_tf on neighbour sets: no edge may have a common
    neighbour (a triangle), and every non-edge needs one (maximality)."""
    for u, v in combinations(range(len(nbrs)), 2):
        if (v in nbrs[u]) == bool(nbrs[u] & nbrs[v]):
            return False
    return True


def naive_mis_family(g) -> list[frozenset]:
    """All maximal independent sets by scanning every vertex subset."""
    edges = edge_set(g)
    vertices = list(range(g.n))
    independent = []
    for r in range(g.n + 1):
        for subset in combinations(vertices, r):
            s = set(subset)
            if any({u, v} in edges for u, v in combinations(subset, 2)):
                continue
            independent.append(s)
    result = []
    for s in independent:
        maximal = all(
            any({v, u} in edges for u in s)
            for v in vertices if v not in s
        )
        if maximal:
            result.append(frozenset(s))
    return result


#: Hard cap for the exhaustive edge-subset scan behind min_triangles_at_density.
MIN_TRIANGLES_MAX_N = 7


@lru_cache(maxsize=None)
def _min_triangle_table(n: int) -> tuple[int, ...]:
    """mins[m] = exact minimum triangle count over all n-vertex graphs with m edges."""
    pairs = list(combinations(range(n), 2))
    rank = {p: i for i, p in enumerate(pairs)}
    tri_masks = [
        (1 << rank[(a, b)]) | (1 << rank[(a, c)]) | (1 << rank[(b, c)])
        for a, b, c in combinations(range(n), 3)
    ]
    num_pairs = len(pairs)
    mins: list[int | None] = [None] * (num_pairs + 1)
    for mask in range(1 << num_pairs):
        m = mask.bit_count()
        cur = mins[m]
        if cur == 0:
            continue
        cnt = 0
        for t in tri_masks:
            if mask & t == t:
                cnt += 1
                if cur is not None and cnt >= cur:
                    break
        if cur is None or cnt < cur:
            mins[m] = cnt
    return tuple(m for m in mins if m is not None)


def min_triangles_at_density(n: int, m: int) -> int:
    """Exact minimum triangle count over all n-vertex graphs with m edges.

    Scans every edge subset, so n is hard-capped at 7 (2^21 subsets).
    """
    if n > MIN_TRIANGLES_MAX_N:
        raise GuardError(f"min_triangles_at_density capped at n={MIN_TRIANGLES_MAX_N}, got {n}")
    if n < 1:
        raise ValueError("need at least one vertex")
    max_m = n * (n - 1) // 2
    if not 0 <= m <= max_m:
        raise ValueError(f"edge count {m} outside 0..{max_m}")
    return _min_triangle_table(n)[m]


def naive_min_triangles(n: int, m: int, graph_cls) -> int:
    """Exact minimum triangle count over n-vertex graphs with m edges."""
    best = None
    for chosen in combinations(list(combinations(range(n), 2)), m):
        g = graph_cls.from_edges(n, chosen)
        t = naive_triangles(g)
        if best is None or t < best:
            best = t
            if best == 0:
                return 0
    return best


def naive_max_clique(g) -> int:
    edges = edge_set(g)
    best = 0
    for r in range(g.n, 0, -1):
        for subset in combinations(range(g.n), r):
            if all({u, v} in edges for u, v in combinations(subset, 2)):
                return r
    return best


def greedy_triangle_removal_rescan(g) -> Graph:
    """Reference for graph.greedy_triangle_removal: after every removal it
    rescans every remaining edge for the one on the most triangles, the
    lexicographically first among ties, and stops when none is on one."""
    rows = list(g.rows)
    while True:
        best_cnt, best = 0, None
        for u, v in combinations(range(g.n), 2):
            cnt = (rows[u] & rows[v]).bit_count()
            if rows[u] >> v & 1 and cnt > best_cnt:
                best_cnt, best = cnt, (u, v)
        if best is None:
            return Graph(g.n, tuple(a & ~b for a, b in zip(g.rows, rows)))
        u, v = best
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)


def set_to_word(s) -> int:
    word = 0
    for v in s:
        word |= 1 << v
    return word


def walk_triangle_free_scalar(n: int, *, forward_prune: bool) -> list[int]:
    """Reference for scan.walk_triangle_free: the leaf edge bitmasks (unsorted)."""
    pairs = list(combinations(range(n), 2))
    total = len(pairs)
    adj = [0] * n
    undecided = [((1 << n) - 1) ^ (1 << x) for x in range(n)]
    decided_non = [0] * n
    out: list[int] = []

    def viable(x: int, y: int) -> bool:
        return bool((adj[x] | undecided[x]) & (adj[y] | undecided[y]))

    def rec(level: int, mask: int) -> None:
        if level == total:
            out.append(mask)
            return
        u, v = pairs[level]
        bu, bv = 1 << u, 1 << v
        undecided[u] &= ~bv
        undecided[v] &= ~bu
        # absent branch
        decided_non[u] |= bv
        decided_non[v] |= bu
        ok = True
        if forward_prune:
            for x in (u, v):
                rest = decided_non[x]
                while rest and ok:
                    low = rest & -rest
                    rest ^= low
                    if not viable(x, low.bit_length() - 1):
                        ok = False
        if ok:
            rec(level + 1, mask)
        decided_non[u] &= ~bv
        decided_non[v] &= ~bu
        # present branch; a common neighbor would close a triangle
        if adj[u] & adj[v] == 0:
            adj[u] |= bv
            adj[v] |= bu
            rec(level + 1, mask | 1 << level)
            adj[u] &= ~bv
            adj[v] &= ~bu
        undecided[u] |= bv
        undecided[v] |= bu

    rec(0, 0)
    return out


def naive_maximal_tf_within(n: int, free, seed) -> list:
    """Maximal triangle-free graphs made of the seed edges plus a subset of
    the free pairs, sorted by edge bitmask.  Unpruned search: only edges
    that would close a triangle are skipped, and every leaf is filtered by
    naive_is_maximal_tf's neighbour-set test."""
    nbrs = [set() for _ in range(n)]
    for u, v in seed:
        nbrs[u].add(v)
        nbrs[v].add(u)
    found = []

    def rec(k: int) -> None:
        if k == len(free):
            if naive_is_maximal_tf_nbrs(nbrs):
                found.append(Graph.from_edges(
                    n, [(u, v) for u in range(n) for v in nbrs[u] if u < v]))
            return
        rec(k + 1)
        u, v = free[k]
        if not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
            rec(k + 1)
            nbrs[u].remove(v)
            nbrs[v].remove(u)

    rec(0)
    return sorted(found, key=edge_mask)


def instance_graphs(inst) -> tuple[Graph, Graph, Graph]:
    """A reduction instance's container, removal and selected rows as Graphs."""
    return tuple(Graph(inst.n, rows) for rows in (inst.container, inst.removal, inst.selected))


def naive_h_star(inst) -> list:
    """Reference for reduction.enumerate_h_star: the container edges outside
    the removal set are free, and the selected edges are the seed."""
    container, removal, selected = instance_graphs(inst)
    removed = set(edge_list(removal))
    free = [e for e in edge_list(container) if e not in removed]
    return naive_maximal_tf_within(inst.n, free, edge_list(selected))


def naive_reduced_graph(inst) -> Graph:
    """Reference for reduction.reduced_graph, on edge sets: the container
    minus (removal - selected), minus every container edge that closes a
    triangle with two selected edges."""
    container, removal, selected_graph = instance_graphs(inst)
    selected = edge_set(selected_graph)
    dropped = edge_set(removal) - selected
    kept = []
    for u, v in edge_list(container):
        if frozenset((u, v)) in dropped:
            continue
        if any({u, w} in selected and {v, w} in selected for w in range(inst.n)):
            continue
        kept.append((u, v))
    return Graph.from_edges(inst.n, kept)


def naive_auxiliary_rows(inst) -> tuple[list, list[int]]:
    """Reference for reduction.build_auxiliary: the T-vertices (the reduced
    edges outside the selected set, in lexicographic order) and T's rows,
    one per vertex pair of the instance, indexed by its rank in
    ``combinations(range(n), 2)`` and 0 for a pair that is no T-vertex, from
    a test of every pair of T-vertices: two are adjacent iff they share one
    endpoint and a selected edge joins their other ends."""
    selected = edge_set(instance_graphs(inst)[2])
    vertices = [e for e in edge_list(naive_reduced_graph(inst)) if frozenset(e) not in selected]
    rank = {pair: i for i, pair in enumerate(combinations(range(inst.n), 2))}
    rows = [0] * len(rank)
    for e, f in combinations(vertices, 2):
        if len(set(e) & set(f)) == 1 and frozenset(set(e) ^ set(f)) in selected:
            rows[rank[e]] |= 1 << rank[f]
            rows[rank[f]] |= 1 << rank[e]
    return vertices, rows


def folklore_census(n: int) -> dict[str, int]:
    """Reference for constructions.folklore_family_stats: builds every member."""
    total = 1 << folklore_bit_count(n)
    seen = set()
    tf = maximal = 0
    for code in range(total):
        g = folklore_graph(FolkloreChoice.from_int(n, code))
        seen.add(g.rows)
        tf += is_triangle_free(g.rows)
        maximal += is_maximal_triangle_free(g.rows)
    return {"total": total, "distinct": len(seen), "triangle_free": tf, "maximal": maximal}


def write_graph6_file(path, graphs) -> int:
    """Write a newline-delimited graph6 file; returns the number of lines."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(encode_graph6(g))
            fh.write("\n")
            count += 1
    return count


def iter_graph6_file(path):
    """Reference for graph6.read_graph6_file: decodes one line at a time, with
    line-numbered errors.  Opened as latin-1, like the reader, so a non-ASCII
    byte is a decode error of its line; only ASCII whitespace is stripped."""
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip(" \t\r\n\v\f")
            if not stripped:
                continue
            yield decode_graph6(stripped, line=lineno)


MATCHING_PARTITION_MAX_N = 24


def check_matching_partition(rows) -> tuple[int, int] | None:
    """Reference for constructions.matching_partition_flags: the pair (X, V-X)
    of bit words for the numerically smallest X with G[X] a perfect matching
    and V-X independent, or None, for G's bit rows (n = len(rows)).
    Exhaustive; capped at 24 vertices."""
    n = len(rows)
    if n > MATCHING_PARTITION_MAX_N:
        raise GuardError(
            f"partition scan capped at n={MATCHING_PARTITION_MAX_N}, got {n}")
    full = (1 << n) - 1
    for x_mask in range(1 << n):
        y_mask = full ^ x_mask
        ok = True
        rest = x_mask
        while rest:
            low = rest & -rest
            rest ^= low
            if (rows[low.bit_length() - 1] & x_mask).bit_count() != 1:
                ok = False
                break
        if not ok:
            continue
        rest = y_mask
        while rest:
            low = rest & -rest
            rest ^= low
            if rows[low.bit_length() - 1] & y_mask:
                ok = False
                break
        if ok:
            return x_mask, y_mask
    return None
