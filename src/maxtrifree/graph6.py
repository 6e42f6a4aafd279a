"""graph6 codec: McKay's ASCII encoding of undirected graphs.

The upper triangle is serialized in column order (x_{0,1}, x_{0,2}, x_{1,2},
x_{0,3}, ...), packed big-endian into 6-bit chunks, each offset by 63.  The
decoder is strict: bad characters, wrong lengths, and nonzero padding are all
errors, so write-then-read is bit exact.

One encoder serves single graphs and whole streams: ``encode_graph6_rows``
writes the lines of many graphs given as unsigned bit rows, reading only the
bits above the diagonal, and ``encode_graph6`` is that on one graph's rows.
Both bulk halves work a character at a time.  The encoder builds bit j of
every character in one pass (at most six passes, whatever n is), each a
gather of the rows that hold that bit's pairs, so its temporaries are
(N, nchars) arrays in the rows' own dtype.  The reader turns each character
position into rows with a table lookup per run of the vertices it touches:
its six pairs touch at most 12 vertices, in at most two runs of at most
``_TABLE_SPAN`` consecutive vertices (one run for every position when
n <= 12), and a (run, 64) table holds the row bits that each code adds to
that run.  The tables are ``graph.row_dtype(n)`` words, the smallest
unsigned dtype that holds n bits, at most 2 * 12 * 64 of them per character
(1.2 MB in all at n = 62), and only the last four n's tables are cached.

``read_graph6_file`` reads the whole file as text and takes one of two
paths.  A file whose lines all share one short-form shape, as every
``enumerate --stream`` file does, is checked as one uint8 array and unpacked
``_BLOCK_LINES`` lines at a time, and each slice's bit rows, symmetric and
loop free by construction, go to ``graphs_from_rows``, which makes the
instances without re-checking them and with the cyclic garbage collector
paused: a read keeps every graph alive, and the collector's passes over them
would cost about a third of the read.  Any other file (mixed shapes, a
header, a long-form or blank line, a space or tab on a line, or a line the
array checks reject) goes line by line through ``decode_graph6``, so a bad
line raises the same line-numbered error as decoding the file line by line.
"""
from __future__ import annotations

import functools

import numpy as np

from .graph import MAX_VERTICES, Graph, graphs_from_rows, row_dtype

#: Lines per slice of rows that read_graph6_file builds at once; bounds the
#: slice's arrays for any n <= 62 on top of the file's text and its graphs.
_BLOCK_LINES = 4_096

#: Most vertices one decode table covers: the consecutive vertices from the
#: lowest of a run to its highest.
_TABLE_SPAN = 12

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


def _pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (u, v), u < v, in graph6's column order: pair i is bit i of
    the line's body."""
    return [(u, v) for v in range(1, n) for u in range(v)]


@functools.lru_cache(maxsize=16)
def _bit_slots(n: int, dtype: np.dtype) -> tuple[tuple[np.ndarray, ...], ...]:
    """One slot per bit j of a character that some character has a pair
    for, j = 0 the most significant: the pair (u, v) that bit holds in each
    character, as gather indices u, and the (shift, mask, up) that move bit
    v of row u to the bit's place 5 - j.  The last character's missing pairs
    are (0, 0) with mask 0, so they add nothing.

    Bits 3..5 have v >= place in every pair, so one right shift by v - place
    and the mask do it (up is None); bits 0..2 hold pairs with v < place,
    such as (0, 1), so they shift bit v to 0, mask it and shift it up by
    place.  The operands are arrays in *dtype*: a ufunc on a one-element
    array is slower with a scalar operand.
    """
    pairs = _pairs(n)
    nchars = (len(pairs) + 5) // 6
    grid = np.zeros((6 * nchars, 2), dtype=np.intp)
    grid[:len(pairs)] = np.reshape(pairs, (-1, 2))
    real = (np.arange(6 * nchars) < len(pairs)).astype(dtype)
    slots = []
    for j in range(min(6, len(pairs))):
        us, vs, keep, place = grid[j::6, 0].copy(), grid[j::6, 1], real[j::6], 5 - j
        if j < 3:
            shift, mask, up = vs.astype(dtype), keep, np.full(1, place, dtype)
        else:
            shift, mask, up = np.maximum(vs - place, 0).astype(dtype), keep << place, None
        for cached in (us, shift, mask, up):
            if cached is not None:
                cached.flags.writeable = False  # shared by every call
        slots.append((us, shift, mask, up))
    return tuple(slots)


def encode_graph6_rows(n: int, rows) -> bytes:
    """Newline-terminated graph6 lines, one per row of the (N, n) unsigned
    array *rows*, for any n <= 64.

    Only the bits above the diagonal are read: bit v of ``rows[i, u]`` is
    x_{u,v} for u < v, so full adjacency rows and upper rows encode alike.
    The codes are built a character at a time: bit j of every character is
    one gather of the rows u of its pairs (u, v), shifted by v and added at
    its place, so at most six passes over (N, nchars) arrays in the rows'
    own dtype make all the codes, which are then written into the uint8
    lines.  An unsigned array keeps its dtype; anything else becomes uint64.
    A bad n, a wrong shape or a row with a bit at or past n raises
    Graph6Error.
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
    if n < 8 * rows.dtype.itemsize and int(rows.max(initial=0)) >> n:
        raise Graph6Error(f"a row has a bit at or past vertex n={n}")
    nchars = (n * (n - 1) // 2 + 5) // 6
    codes = np.full((len(rows), nchars), 63, dtype=rows.dtype)
    for us, shift, mask, up in _bit_slots(n, rows.dtype):
        bit = rows.take(us, axis=1)  # column c: row u of the pair in character c
        bit >>= shift
        bit &= mask
        if up is not None:
            bit <<= up
        codes += bit  # the pairs' bits are disjoint, so adding is or-ing
    head = [n + 63] if n <= 62 else [126] + [(n >> s & 63) + 63 for s in (12, 6, 0)]
    out = np.empty((len(rows), len(head) + nchars + 1), dtype=np.uint8)
    out[:, :len(head)] = head
    out[:, len(head):-1] = codes
    out[:, -1] = ord("\n")
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


@functools.lru_cache(maxsize=4)
def _code_tables(n: int) -> list[tuple[int, int, int, np.ndarray]]:
    """The decode tables of an n-vertex short-form line, as (c, lo, hi, table)
    entries: ``table[w - lo, code]`` holds the bits that ``code`` at
    character position c adds to row w, for lo <= w < hi, as
    ``row_dtype(n)`` words.

    A character's six pairs touch at most 12 vertices.  They are covered by
    runs of at most ``_TABLE_SPAN`` consecutive vertices, one table per run
    and at most two runs per character, so a table is at most 12 x 64 words.
    """
    dtype = row_dtype(n)
    # (6, 64): bit j of each code, the first pair's bit the most significant
    places = (np.arange(64) >> np.arange(5, -1, -1)[:, None] & 1).astype(dtype)
    pairs = _pairs(n)
    entries = []
    for c in range(0, len(pairs), 6):
        chunk = pairs[c:c + 6]
        runs: list[list[int]] = []
        for w in sorted({w for pair in chunk for w in pair}):
            if runs and w - runs[-1][0] < _TABLE_SPAN:
                runs[-1][1] = w + 1
            else:
                runs.append([w, w + 1])
        for lo, hi in runs:
            adds = np.zeros((hi - lo, len(chunk)), dtype=dtype)  # column j: pair j's bits
            for j, (u, v) in enumerate(chunk):
                if lo <= u < hi:
                    adds[u - lo, j] = 1 << v
                if lo <= v < hi:
                    adds[v - lo, j] = 1 << u
            table = adds @ places[:len(chunk)]
            table.flags.writeable = False  # cached, so shared by every call
            entries.append((c // 6, lo, hi, table))
    return entries


def _decode_short(text: str) -> list[Graph] | None:
    """The graphs of *text* if its lines all share one short-form shape, or
    None if any line fails a check.

    The text, given a final newline if it lacks one, is viewed as one uint8
    array of lines of the first line's width, and decode_graph6's checks
    (first character, character range, body length, zero padding) are made
    on all lines at once.  A newline is not a code, so a line of another
    width, a blank line, a header or a long-form line fails them.  The rows
    are then built ``_BLOCK_LINES`` lines at a time, one character position
    at a time: each of its ``_code_tables`` entries is one lookup of the
    slice's codes there, or-ed into the vertex-major rows of its run.  They
    come out symmetric, loop free and below bit n by construction, which is
    the guarantee ``graphs_from_rows`` asks of its caller.
    """
    if not text.endswith("\n"):
        text += "\n"
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        return None
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(text) % (nchars + 2):
        return None
    chars = np.frombuffer(text.encode("latin-1"), dtype=np.uint8).reshape(-1, nchars + 2)
    body = chars[:, 1:-1]  # a view: min and max read it without a copy
    if (np.any(chars[:, 0] != n + 63) or np.any(chars[:, -1] != ord("\n"))
            or body.min(initial=63) < 63 or body.max(initial=63) > 126):
        return None
    pad = 6 * nchars - nbits  # the last character's low bits
    if pad and np.any((chars[:, -2] - 63) & (1 << pad) - 1):
        return None
    graphs: list[Graph] = []
    for start in range(0, len(chars), _BLOCK_LINES):
        block = body[start:start + _BLOCK_LINES].T.astype(np.intp)  # one row per position
        block -= 63
        rows = np.zeros((n, block.shape[1]), dtype=row_dtype(n))
        for c, lo, hi, table in _code_tables(n):
            rows[lo:hi] |= table.take(block[c], axis=1)
        graphs += graphs_from_rows(n, rows.T)
    return graphs


def read_graph6_file(path) -> list[Graph]:
    """All graphs of a newline-delimited graph6 file, in file order.

    Lines are stripped of ASCII whitespace (``WHITESPACE``), blank lines are
    skipped and a ``>>graph6<<`` header is allowed on any line.  The first
    malformed line raises Graph6Error with its line number, as
    ``decode_graph6`` would for that line alone.
    """
    # latin-1 maps every byte to one character, so a non-ASCII byte reaches the
    # range check and fails with its line number; universal newlines turn
    # "\r\n" and a lone "\r" into line breaks
    with open(path, "r", encoding="latin-1") as fh:
        text = fh.read()
    if not text:
        return []
    graphs = _decode_short(text)
    if graphs is not None:
        return graphs
    return [decode_graph6(s, line=i) for i, s in enumerate(text.split("\n"), start=1)
            if s.strip(WHITESPACE)]
