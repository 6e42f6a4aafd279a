"""graph6 codec: McKay's ASCII encoding of undirected graphs.

The upper triangle is serialized in column order (x_{0,1}, x_{0,2}, x_{1,2},
x_{0,3}, ...), packed big-endian into 6-bit chunks, each offset by 63.  The
decoder is strict: bad characters, wrong lengths, and nonzero padding are all
errors, so write-then-read is bit exact.

One encoder serves single graphs and whole streams: ``encode_graph6_rows``
writes the lines of many graphs given as unsigned bit rows, reading only the
bits above the diagonal, and ``encode_graph6`` is that on one graph's rows.
``read_graph6_file`` reads a file in blocks of lines and takes one of two
paths per block.  A block whose lines share one short-form shape, as every
block of an ``enumerate --stream`` file does, is checked and unpacked as
uint8 arrays in one call, and its bit rows, symmetric and loop free by
construction, go to ``graphs_from_rows``, which makes the instances without
re-checking them and with the cyclic garbage collector paused: a read keeps
every graph alive, and the collector's passes over them would cost about a
third of the read.  Every other block (mixed shapes, a header, a long-form
or blank line, or a line the batch checks reject) goes line by line through
``decode_graph6``, so a bad line raises the same line-numbered error as
decoding the file line by line.
"""
from __future__ import annotations

from itertools import islice

import numpy as np

from .graph import MAX_VERTICES, Graph, graphs_from_rows

#: Lines per block in read_graph6_file; bounds the block's arrays for any n <= 62
#: and what the block holds on top of the graphs already decoded.
_BLOCK_LINES = 4_096

HEADER = ">>graph6<<"

#: The characters stripped from both ends of a line: ASCII whitespace only.
#: str.strip() with no argument also drops Unicode spaces such as U+00A0 and
#: the separators U+001C..U+001F, which would let a corrupt line decode.
WHITESPACE = " \t\r\n\x0b\x0c"


class Graph6Error(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def encode_graph6_rows(n: int, rows) -> bytes:
    """Newline-terminated graph6 lines, one per row of the (N, n) unsigned
    array *rows*, for any n <= 64.

    Only the bits above the diagonal are read: bit v of ``rows[i, u]`` is
    x_{u,v} for u < v, so full adjacency rows and upper rows encode alike.
    Column v of the upper triangle is one shift of the rows before it; the
    bits are then summed six to a character.  An unsigned array keeps its
    dtype; anything else becomes uint64.  A bad n, a wrong shape or a row
    with a bit at or past n raises Graph6Error.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise Graph6Error(f"graph6 rows need 0 <= n <= {MAX_VERTICES}, got n={n}")
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "u"):
        try:
            rows = np.asarray(rows, dtype=np.uint64)
        except OverflowError:
            raise Graph6Error("rows must be unsigned words of at most 64 bits") from None
    if rows.ndim != 2 or rows.shape[1] != n:
        raise Graph6Error(f"rows of shape {rows.shape} are not an (N, {n}) array")
    if n < 8 * rows.dtype.itemsize and np.any(rows >= rows.dtype.type(1 << n)):
        raise Graph6Error(f"a row has a bit at or past vertex n={n}")
    nchars = (n * (n - 1) // 2 + 5) // 6
    bits = np.zeros((len(rows), 6 * nchars), dtype=np.uint8)
    start = 0
    for v in range(1, n):
        # column v: x_{u,v} for u < v, shifted in the rows' own dtype and
        # cast straight into the bits
        column = bits[:, start:start + v]
        np.right_shift(rows[:, :v], rows.dtype.type(v), out=column, casting="unsafe")
        column &= 1
        start += v
    head = [n + 63] if n <= 62 else [126] + [(n >> s & 63) + 63 for s in (12, 6, 0)]
    out = np.empty((len(rows), len(head) + nchars + 1), dtype=np.uint8)
    out[:, :len(head)] = head
    out[:, -1] = ord("\n")
    codes = out[:, len(head):-1]
    codes[...] = 63
    groups = bits.reshape(len(rows), nchars, 6)
    for j in range(6):  # six bits per character, the first the most significant
        codes += groups[:, :, j] << (5 - j)
    del bits, groups  # freed before the output is copied to bytes
    return out.tobytes()


def encode_graph6(g: Graph) -> str:
    """graph6 string for g (without trailing newline)."""
    return encode_graph6_rows(g.n, [g.rows])[:-1].decode("ascii")


def decode_graph6(text: str, line: int | None = None) -> Graph:
    """Parse one graph6 string, stripped of ASCII whitespace (``WHITESPACE``);
    raises Graph6Error on any malformation."""
    s = text.strip(WHITESPACE)
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", line)
    vals = []
    for ch in s:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise Graph6Error(f"character {ch!r} outside graph6 range", line)
        vals.append(code)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) < 4:
            raise Graph6Error("truncated long-form vertex count", line)
        if vals[1] == 63:
            # the '~~' 8-byte form starts at 258048 vertices
            raise Graph6Error("graphs beyond 258047 vertices are unsupported", line)
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"{n} vertices exceed the supported maximum {MAX_VERTICES}", line)
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"expected {(nbits + 5) // 6} data characters for n={n}, got {len(body)}", line
        )
    bits = []
    for code in body:
        bits.extend(code >> shift & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", line)
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return Graph(n, tuple(rows))


def _decode_short(n: int, lines: list[str]) -> list[Graph] | None:
    """The graphs of equal-length short-form lines for n vertices, or None if
    any line fails a check.

    Makes decode_graph6's checks (first character, character range, body
    length, zero padding) on all lines at once.  The rows are then built
    symmetric, loop free and below bit n by construction, which is the
    guarantee ``graphs_from_rows`` asks of its caller.
    """
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(lines[0]) != nchars + 1:
        return None
    text = "".join(lines).encode("latin-1")
    chars = np.frombuffer(text, dtype=np.uint8).reshape(len(lines), nchars + 1)
    codes = chars[:, 1:] - 63
    if np.any(chars[:, 0] != n + 63) or np.any(codes > 63):  # below '?' wraps past 63
        return None
    bits = np.unpackbits((codes << 2)[:, :, None], axis=2)[:, :, :6]
    bits = bits.reshape(len(lines), 6 * nchars)
    if np.any(bits[:, nbits:]):
        return None
    rows = np.zeros((len(lines), n), dtype=np.int64)
    i = 0
    for v in range(1, n):
        for u in range(v):
            bit = bits[:, i].astype(np.int64)
            rows[:, u] |= bit << v
            rows[:, v] |= bit << u
            i += 1
    return graphs_from_rows(n, rows)


def _decode_block(lines: list[str], first_line: int) -> list[Graph]:
    """Graphs of one block of stripped lines, in file order; blank lines skipped.

    A block whose lines all have one length and start with a short-form
    vertex count (as every block of a stream that ``enumerate`` writes does)
    goes to ``_decode_short`` in one call.  Any other block, or one that
    call rejects, goes line by line through ``decode_graph6``.
    """
    head = lines[0]
    if head and "?" <= head[0] <= "}" and len(set(map(len, lines))) == 1:
        graphs = _decode_short(ord(head[0]) - 63, lines)
        if graphs is not None:
            return graphs
    return [decode_graph6(s, line=first_line + i) for i, s in enumerate(lines) if s]


def read_graph6_file(path) -> list[Graph]:
    """All graphs of a newline-delimited graph6 file, in file order.

    Lines are stripped of ASCII whitespace (``WHITESPACE``), blank lines are
    skipped and a ``>>graph6<<`` header is allowed on any line.  The first
    malformed line raises Graph6Error with its line number, as
    ``decode_graph6`` would for that line alone.
    """
    graphs: list[Graph] = []
    # latin-1 maps every byte to one character, so a non-ASCII byte reaches the
    # range check and fails with its line number
    with open(path, "r", encoding="latin-1") as fh:
        first_line = 1
        while block := [raw.strip(WHITESPACE) for raw in islice(fh, _BLOCK_LINES)]:
            graphs.extend(_decode_block(block, first_line))
            first_line += len(block)
    return graphs
