from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxtrifree import (
    Graph,
    Graph6Error,
    decode_graph6,
    encode_graph6,
    encode_graph6_rows,
    graph_from_edge_mask,
    read_graph6_file,
)
from maxtrifree import graph6, scan
from maxtrifree.graph import row_dtype
from oracles import (
    complete_bipartite,
    edge_list,
    edge_mask,
    empty_graph,
    iter_graph6_file,
    path_graph,
    star_graph,
    write_graph6_file,
)


def nx_encode(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_list(g))
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestEncode:
    def test_k4(self):
        assert encode_graph6(Graph.complete(4)) == "C~"

    def test_single_vertex(self):
        assert encode_graph6(empty_graph(1)) == "@"

    def test_matches_networkx_fixed(self):
        for g in (Graph.cycle(5), star_graph(6), complete_bipartite(3, 4),
                  empty_graph(2), Graph.perfect_matching(4), Graph.complete(10)):
            assert encode_graph6(g) == nx_encode(g)

    def test_long_form_n63_n64(self):
        for n in (63, 64):
            g = path_graph(n)
            enc = encode_graph6(g)
            assert enc.startswith("~")
            assert enc == nx_encode(g)
            assert decode_graph6(enc) == g

    @given(st.data())
    def test_matches_networkx_random(self, data):
        n = data.draw(st.integers(1, 12))
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        g = graph_from_edge_mask(n, mask)
        assert encode_graph6(g) == nx_encode(g)


def random_rows(n, rng, count):
    """Full adjacency rows, as Python ints, of *count* random graphs on [n]
    with edge densities spread over 0..1."""
    upper = np.triu(rng.random((count, n, n)) < rng.random((count, 1, 1)), 1)
    bits = upper | upper.transpose(0, 2, 1)
    weights = [1 << v for v in range(n)]
    return [[sum(w for w, bit in zip(weights, row) if bit) for row in g] for g in bits.tolist()]


def nx_lines(n, graphs_rows) -> bytes:
    out = []
    for rows in graphs_rows:
        h = nx.empty_graph(n)
        h.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1)
        out.append(nx.to_graph6_bytes(h, header=False))
    return b"".join(out)


def upper(rows):
    return [row >> (u + 1) << (u + 1) for u, row in enumerate(rows)]


class TestEncodeRows:
    def test_matches_networkx_random(self):
        # Python-int rows go straight to uint64: n = 64 rows with bit 63 stay exact
        rng = np.random.default_rng(6)
        for n in [*range(13), 62, 63, 64]:
            full = random_rows(n, rng, 40 if n > 12 else 200)
            expected = nx_lines(n, full)
            assert encode_graph6_rows(n, full) == expected, n
            assert encode_graph6_rows(n, [upper(r) for r in full]) == expected, n
            assert "".join(encode_graph6(Graph(n, tuple(r))) + "\n"
                           for r in full).encode() == expected, n
            if n <= 16:  # in the walker's own dtype, shifted without widening
                wide = np.array(full, dtype=np.uint16).reshape(len(full), n)
                assert encode_graph6_rows(n, wide) == expected, n

    def test_upper_rows_from_mask_rows_encode_like_full_rows(self):
        rng = np.random.default_rng(7)
        for n in range(1, 12):
            full = random_rows(n, rng, 300)
            masks = np.array([edge_mask(Graph(n, tuple(r))) for r in full], dtype=np.int64)
            rows = scan.mask_rows(n, masks)
            assert rows.tolist() == [upper(r) for r in full], n
            assert encode_graph6_rows(n, rows) == encode_graph6_rows(n, full) \
                == nx_lines(n, full), n

    def test_edge_sizes(self):
        assert encode_graph6_rows(0, np.zeros((2, 0), dtype=np.uint16)) == b"?\n?\n"
        assert encode_graph6_rows(1, [[0], [0]]) == b"@\n@\n"
        assert encode_graph6_rows(2, [[0, 0], [0b10, 0b01]]) == b"A?\nA_\n"
        assert encode_graph6_rows(4, [Graph.complete(4).rows]) == b"C~\n"
        assert encode_graph6_rows(5, np.zeros((0, 5), dtype=np.uint16)) == b""
        assert encode_graph6(empty_graph(0)) == "?"

    def test_rejects_bad_rows(self):
        for n in (-1, 65):
            with pytest.raises(Graph6Error, match="0 <= n <= 64"):
                encode_graph6_rows(n, np.zeros((1, 0), dtype=np.uint64))
        for rows in ([0, 0], [[0, 0, 0]], np.zeros((1, 2, 2), dtype=np.uint8)):
            with pytest.raises(Graph6Error, match=r"not an \(N, 2\) array"):
                encode_graph6_rows(2, rows)
        for rows in ([[0, 0, 1 << 5, 0, 0]], np.array([[0, 0, 0, 0, 1 << 7]], dtype=np.uint8),
                     np.array([[0, 0, 0, 0, -1]], dtype=np.int64)):
            with pytest.raises(Graph6Error, match="at or past vertex n=5"):
                encode_graph6_rows(5, rows)
        for bad in (-1, 1 << 64):
            with pytest.raises(Graph6Error, match="unsigned words"):
                encode_graph6_rows(2, [[0, bad]])


class TestDecode:
    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(1, 12))
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        g = graph_from_edge_mask(n, mask)
        assert decode_graph6(encode_graph6(g)) == g

    def test_header_stripped(self):
        assert decode_graph6(">>graph6<<C~") == Graph.complete(4)

    def test_truncated(self):
        with pytest.raises(Graph6Error):
            decode_graph6("C")

    def test_bad_character(self):
        with pytest.raises(Graph6Error):
            decode_graph6("C\x1f")

    def test_extra_data(self):
        with pytest.raises(Graph6Error):
            decode_graph6("C~~")

    def test_nonzero_padding(self):
        # n=2 uses one data char with 5 padding bits; "_" is the only clean 1-edge byte
        assert decode_graph6("A_").edge_count() == 1
        with pytest.raises(Graph6Error):
            decode_graph6("A`")

    def test_empty(self):
        with pytest.raises(Graph6Error):
            decode_graph6("   ")

    def test_too_large(self):
        big = nx.to_graph6_bytes(nx.empty_graph(65), header=False).decode().strip()
        with pytest.raises(Graph6Error):
            decode_graph6(big)


class TestFiles:
    def test_round_trip(self, tmp_path):
        graphs = [Graph.cycle(5), Graph.complete(4), empty_graph(1), path_graph(64)]
        path = tmp_path / "corpus.g6"
        assert write_graph6_file(path, graphs) == 4
        assert read_graph6_file(path) == graphs

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("C~\n\n@\n")
        assert len(read_graph6_file(path)) == 2

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("C~\nC\n")
        with pytest.raises(Graph6Error, match="line 2"):
            list(iter_graph6_file(path))

    @pytest.mark.parametrize("bad", [
        b"C\xc3\xa9",  # a two-byte UTF-8 character, so the line has the wrong length
        b"D?\xc3",     # one non-ASCII byte in a line of the right length for n=5
    ])
    def test_non_ascii_byte_is_a_line_numbered_error(self, tmp_path, bad):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"C~\n" + bad + b"\nC~\n")
        with pytest.raises(Graph6Error) as lazy:
            list(iter_graph6_file(path))
        with pytest.raises(Graph6Error) as batch:
            read_graph6_file(path)
        assert str(batch.value) == str(lazy.value) == \
            "line 2: character '\xc3' outside graph6 range"

    def test_only_ascii_whitespace_is_stripped(self, tmp_path):
        # str.strip() would also drop U+00A0 and U+001F and read two K4s here
        path = tmp_path / "spaces.g6"
        path.write_bytes(b"C~\xa0\nC~\x1f\n")
        with pytest.raises(Graph6Error) as lazy:
            list(iter_graph6_file(path))
        with pytest.raises(Graph6Error) as batch:
            read_graph6_file(path)
        assert str(batch.value) == str(lazy.value) == \
            "line 1: character '\\xa0' outside graph6 range"
        for ch in "\x1c\x1f\x85\xa0\u2003":  # str.isspace() holds for each
            with pytest.raises(Graph6Error, match="outside graph6 range"):
                decode_graph6("C~" + ch)
        path.write_bytes(b" \tC~\x0b\x0c\r\n\x0c\n>>graph6<<C~\x0b\n")
        assert read_graph6_file(path) == [Graph.complete(4)] * 2

    def test_batch_reader_matches_lazy_reader(self, tmp_path, monkeypatch):
        graphs = [graph_from_edge_mask(n, m) for n, m in
                  [(5, 0b1011001101), (1, 0), (9, 2 ** 36 - 1), (0, 0), (5, 0), (9, 12345),
                   (2, 1)]]
        lines = ["", encode_graph6(path_graph(64)), "  ", ">>graph6<<" + encode_graph6(graphs[0])]
        for i in range(300):
            g = graphs[i // 10 % len(graphs)]  # runs of ten lines of one shape
            lines.append(encode_graph6(g))
            if i % 50 == 7:
                lines += ["", ">>graph6<<" + encode_graph6(g), encode_graph6(path_graph(64))]
        assert {"?", "@", "A_"} <= set(lines)  # n = 0 and 1 have no data characters
        path = tmp_path / "mixed.g6"
        path.write_text("\n".join(lines) + "\n")
        lazy = list(iter_graph6_file(path))
        single = []
        monkeypatch.setattr(
            graph6, "decode_graph6",
            lambda text, line=None: single.append(line) or decode_graph6(text, line))
        assert read_graph6_file(path) == lazy
        assert len(lazy) == 300 + 2 + 2 * 6
        # not one shape, so every non-blank line is decoded alone, in order
        assert single == [i + 1 for i, s in enumerate(lines) if s.strip()]
        assert len(single) == len(lazy)

    def test_one_call_path_is_exact_for_every_short_form_n(self, tmp_path, monkeypatch):
        # the rows _decode_short builds go to graphs_from_rows unchecked, so
        # each must equal what Graph's own checks accept from decode_graph6
        rng = np.random.default_rng(17)
        results, single = [], []
        decode_short = graph6._decode_short
        monkeypatch.setattr(graph6, "_decode_short",
                            lambda text: results.append(decode_short(text)) or results[-1])
        monkeypatch.setattr(
            graph6, "decode_graph6",
            lambda text, line=None: single.append(line) or decode_graph6(text, line))
        for n in range(63):
            pairs = list(combinations(range(n), 2))
            graphs = [empty_graph(n), Graph.complete(n)] + [
                Graph.from_edges(n, [p for p, coin in zip(pairs, rng.random(len(pairs)))
                                     if coin < density])
                for density in (0.1, 0.5, 0.9, 0.5)]
            lines = [encode_graph6(g) for g in graphs]
            assert graphs == [decode_graph6(s, line=i + 1) for i, s in enumerate(lines)], n
            single.clear()
            path = tmp_path / f"n{n}.g6"
            # LF, CRLF and no final newline all read as one array
            for text in ("\n".join(lines) + "\n", "\r\n".join(lines) + "\r\n", "\n".join(lines)):
                path.write_bytes(text.encode("ascii"))
                assert read_graph6_file(path) == graphs, n
            assert single == [], n
        # one call per file, none rejected
        assert len(results) == 3 * 63 and all(results)

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33])
    def test_one_shape_rows_are_row_dtype_words(self, tmp_path, monkeypatch, n):
        # at each word-width boundary the one-call path builds row_dtype(n)
        # rows holding each graph's adjacency
        rng = np.random.default_rng(n)
        pairs = list(combinations(range(n), 2))
        graphs = [empty_graph(n), Graph.complete(n)] + [
            Graph.from_edges(n, [p for p, coin in zip(pairs, rng.random(len(pairs))) if coin < 0.5])
            for _ in range(4)]
        handed = []
        real = graph6.graphs_from_rows
        monkeypatch.setattr(graph6, "graphs_from_rows",
                            lambda n, rows: handed.append(rows) or real(n, rows))
        path = tmp_path / f"n{n}.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        assert read_graph6_file(path) == graphs
        (rows,) = handed
        assert rows.dtype == row_dtype(n)
        assert [tuple(r) for r in rows.tolist()] == [g.rows for g in graphs]

    def test_code_tables_are_bounded(self):
        # at most two tables of at most 12 rows per character position.  Pair i
        # is the same pair for every n, so n = 62 holds every full position of
        # a smaller n; the others add short last positions and each word dtype
        for n in (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 61, 62):
            entries = graph6._code_tables(n)
            positions = [c for c, *_ in entries]
            assert sorted(set(positions)) == list(range((n * (n - 1) // 2 + 5) // 6)), n
            assert max(map(positions.count, positions), default=0) <= 2, n
            for c, lo, hi, table in entries:
                assert 0 <= lo < hi <= n and hi - lo <= 12, n
                assert table.shape == (hi - lo, 64) and table.dtype.itemsize * 8 >= n, n

    @pytest.mark.parametrize("text", [
        ">>graph6<<D??\nDQo\nD~{\nD??\n",  # a header on the first line only
        "DQo\nD~{\n\nD??\n \t\nDQo\n",     # blank lines among one-shape lines
        "B?\nC?\nBw\nCw\n",                 # one length, but n = 3 and n = 4
    ])
    def test_small_files_that_are_not_one_shape(self, tmp_path, text):
        path = tmp_path / "small.g6"
        path.write_text(text)
        got = read_graph6_file(path)
        assert got == list(iter_graph6_file(path)) and len(got) == 4

    @pytest.mark.parametrize("bad", [
        "D!?",     # '!' is below the graph6 range
        "D?\x7f",  # DEL is above it
        "D???",    # n=5 takes two data characters
        "D?",      # ... not one
        "D?@",     # the last two of the 12 body bits are padding
    ])
    def test_batch_reader_reports_the_lazy_readers_error(self, tmp_path, bad):
        good = [encode_graph6(graph_from_edge_mask(5, m)) for m in range(1000)]
        path = tmp_path / "bad.g6"
        path.write_text("\n".join(good + [bad, "D?", "D?@"] + good) + "\n")
        with pytest.raises(Graph6Error) as lazy:
            list(iter_graph6_file(path))
        with pytest.raises(Graph6Error, match="line 1001") as batch:
            read_graph6_file(path)
        assert str(batch.value) == str(lazy.value)
        assert batch.value.line == lazy.value.line == 1001

    @pytest.mark.parametrize("bad", ["D!?", "D?\x7f", "D?@", "D@A"])
    @pytest.mark.parametrize("block_lines", [None, 1000, 1001])
    def test_one_shape_block_with_a_rejected_line(self, tmp_path, monkeypatch, bad,
                                                  block_lines):
        # every line has the width of n = 5, so the file is tried as one array;
        # slices of 1000 and 1001 lines would put the bad line first and last
        # in its slice, and the array is rejected before any slice is built
        good = [encode_graph6(graph_from_edge_mask(5, m)) for m in range(1024)]
        path = tmp_path / "bad.g6"
        path.write_text("\n".join(good[:1000] + [bad] + good) + "\n")
        if block_lines is not None:
            monkeypatch.setattr(graph6, "_BLOCK_LINES", block_lines)
        with pytest.raises(Graph6Error) as lazy:
            list(iter_graph6_file(path))
        with pytest.raises(Graph6Error) as batch:
            read_graph6_file(path)
        assert str(batch.value) == str(lazy.value)
        assert batch.value.line == lazy.value.line == 1001

    @pytest.mark.parametrize("case", ["crlf", "space", "tab", "no_final_newline", "blank_tail"])
    @pytest.mark.parametrize("block_lines, slices", [(None, None), (40, 5), (41, 5)])
    def test_one_shape_file_with_whitespace_to_strip(self, tmp_path, monkeypatch, case,
                                                     block_lines, slices):
        # line 41 is the odd one; row slices of 40 and 41 lines put it first
        # and last in its slice, and cut the 200 lines into 5 slices (None
        # keeps the default slice size and counts no slices)
        good = [encode_graph6(graph_from_edge_mask(5, m)) for m in range(200)]
        if block_lines is not None:
            monkeypatch.setattr(graph6, "_BLOCK_LINES", block_lines)
        path = tmp_path / f"{case}.g6"

        def write(odd: str) -> None:
            text = {
                "crlf": "".join(s + "\r\n" for s in good[:40] + [odd] + good[41:]),
                "space": "\n".join(good[:40] + [odd + " "] + good[41:]) + "\n",
                "tab": "\n".join(good[:40] + ["\t" + odd + "\t"] + good[41:]) + "\n",
                "no_final_newline": "\n".join(good[:40] + [odd] + good[41:]),
                "blank_tail": "\n".join(good[:40] + [odd] + good[41:]) + "\n\n \n\t\r\n\n",
            }[case]
            path.write_bytes(text.encode("ascii"))

        write(good[40])
        lazy = list(iter_graph6_file(path))
        single, handed = [], []
        monkeypatch.setattr(
            graph6, "decode_graph6",
            lambda text, line=None: single.append(line) or decode_graph6(text, line))
        real = graph6.graphs_from_rows
        monkeypatch.setattr(graph6, "graphs_from_rows",
                            lambda n, rows: handed.append(rows) or real(n, rows))
        assert read_graph6_file(path) == lazy
        assert lazy == [graph_from_edge_mask(5, m) for m in range(200)]
        if case in ("crlf", "no_final_newline"):  # one shape once line breaks are read
            assert single == [] and handed
            if slices is not None:
                assert len(handed) == slices
        else:  # a space, a tab or a blank line: every non-blank line alone
            assert single == list(range(1, 201)) and handed == []
        write("D?@")  # nonzero padding bits
        with pytest.raises(Graph6Error) as expected:
            list(iter_graph6_file(path))
        with pytest.raises(Graph6Error) as batch:
            read_graph6_file(path)
        assert str(batch.value) == str(expected.value) == "line 41: nonzero padding bits"
        assert batch.value.line == 41

    @pytest.mark.parametrize("block_lines, blocks", [(None, 1), (1000, 3), (500, 5)])
    def test_one_shape_block_is_decoded_in_one_call(self, tmp_path, monkeypatch,
                                                    block_lines, blocks):
        path = tmp_path / "n5.g6"
        path.write_bytes(encode_graph6_rows(5, scan.mask_rows(5, np.arange(2048) % 1024)))
        lazy = list(iter_graph6_file(path))
        results, handed, single = [], [], []
        decode_short, real = graph6._decode_short, graph6.graphs_from_rows
        monkeypatch.setattr(graph6, "_decode_short",
                            lambda text: results.append(decode_short(text)) or results[-1])
        monkeypatch.setattr(graph6, "graphs_from_rows",
                            lambda n, rows: handed.append(rows) or real(n, rows))
        monkeypatch.setattr(
            graph6, "decode_graph6",
            lambda text, line=None: single.append(line) or decode_graph6(text, line))
        if block_lines is not None:
            monkeypatch.setattr(graph6, "_BLOCK_LINES", block_lines)
        assert read_graph6_file(path) == lazy
        # one call for the whole file, its rows built a slice at a time
        assert len(results) == 1 and results[0] == lazy and single == []
        assert len(handed) == blocks
        assert [len(rows) for rows in handed] == \
            [min(graph6._BLOCK_LINES, 2048 - i) for i in range(0, 2048, graph6._BLOCK_LINES)]
        assert all(rows.dtype == row_dtype(5) for rows in handed)

    @pytest.mark.parametrize("text", ["", "\n"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "empty.g6"
        path.write_text(text)
        assert read_graph6_file(path) == [] == list(iter_graph6_file(path))

    @pytest.mark.parametrize("text, error", [
        # 3 + 5 characters: the first row of n = 5's width 4 ends in "D"
        ("D?\nD???\n", "line 1: expected 2 data characters for n=5, got 1"),
        # one line of 7 characters, two rows of width 4 with "D" in column 0
        ("D??DD??\n", "line 1: expected 2 data characters for n=5, got 6"),
    ])
    def test_lines_that_fill_whole_rows_of_another_width(self, tmp_path, monkeypatch,
                                                         text, error):
        # the text's length is a multiple of the width, but a row's last
        # column is not a newline, so the file goes line by line
        path = tmp_path / "widths.g6"
        path.write_text(text)
        single = []
        monkeypatch.setattr(
            graph6, "decode_graph6",
            lambda text, line=None: single.append(line) or decode_graph6(text, line))
        assert graph6._decode_short(path.read_text()) is None
        with pytest.raises(Graph6Error) as lazy:
            list(iter_graph6_file(path))
        with pytest.raises(Graph6Error) as batch:
            read_graph6_file(path)
        assert str(batch.value) == str(lazy.value) == error
        assert single == [1]
