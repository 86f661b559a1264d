"""Total coloring values and the color-matrix / file representations.

A total coloring on Z_n is a vertex color vector plus one column per
distance d, 1 <= d <= n/2: columns[d][u] is the color of the pair
{u, u + d mod n}, None if it has none.  The involution's column has n/2
entries, and a distance with no colored pair has no column.  Every pair
has a slot, so colored non-edges read from a file reach the verifier.

The color matrix view is the n x n symmetric array with vertex colors on
the diagonal and edge colors off it, mirroring the published tables; blank
cells are non-edges.  Reading or writing a coloring never holds that grid,
and the writers emit it in blocks of rows, so the memory they take is the
columns plus one block, whatever the size of the output.  Reading a JSON
file in the writer's layout holds its text, the columns and one block of
edges.  Files are read as UTF-8, a leading byte-order mark allowed; a CSV
text is split on comma runs unless a '"' or a NUL sends it to csv.reader.
"""

from __future__ import annotations

import csv
import json
import re
from bisect import bisect_left
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import is_not, itemgetter, lt, setitem, sub

from .errors import PreconditionFailed


def _filled(columns: dict, n: int, us, vs, cs) -> dict:
    """A copy of columns with color cs[i] at the slot of pair (us[i], vs[i]),
    (v - u, u) or, past n/2, (n - v + u, v); new lists for those written."""
    ds, at = list(map(sub, vs, us)), list(us)
    for i in [*compress(count(), map(lt, repeat(n // 2), ds))]:
        ds[i], at[i] = n - ds[i], vs[i]
    columns = dict(columns)
    for d in set(ds):
        columns[d] = (columns[d][:] if d in columns
                      else [None] * (n // 2 if 2 * d == n else n))
    deque(map(setitem, map(columns.__getitem__, ds), at, cs), 0)
    return columns


@dataclass(frozen=True)
class TotalColoring:
    """Immutable coloring; colors are 1-based positive integers.  Colorings
    made by with_edge_colors share the columns they leave unchanged."""

    vertex_colors: tuple[int, ...]
    columns: dict  # distance d -> [color of {u, u + d mod n} or None]

    @classmethod
    def from_pairs(cls, vertex_colors, pairs: dict) -> "TotalColoring":
        """The coloring with color pairs[(u, v)] on each pair u < v."""
        return cls(tuple(vertex_colors), {}).with_edge_colors(pairs)

    @property
    def n(self) -> int:
        return len(self.vertex_colors)

    @property
    def palette_size(self) -> int:
        return max({*self.vertex_colors, *chain.from_iterable(
            self.columns.values())} - {None}, default=0)

    def column(self, d: int) -> list:
        """The column of distance d, all None if no pair there is colored."""
        n = self.n
        return self.columns.get(d) or [None] * (n // 2 if 2 * d == n else n)

    def edge_color(self, u: int, v: int):
        """The color of pair (u, v), u < v, or None."""
        n, d = self.n, v - u
        col = self.columns.get(min(d, n - d))
        return None if col is None else col[u if 2 * d <= n else v]

    def edge_items(self):
        """((u, v), color) of every colored pair u < v, in sorted order."""
        return chain.from_iterable(
            zip(zip(flat[1::3], flat[2::3]), flat[0::3])
            for flat in _pair_blocks(self))

    def with_edge_colors(self, updates: dict) -> "TotalColoring":
        us, vs = zip(*updates) if updates else ((), ())
        return TotalColoring(self.vertex_colors, _filled(
            self.columns, self.n, us, vs, updates.values()))


@dataclass
class BuildReport:
    """What a theorem builder produced and how."""

    coloring: TotalColoring
    colors_used: int
    bound_claimed: int
    fallback_used: bool = False
    notes: str = ""
    verification: object = None  # the VerificationReport that accepted it


_BLOCK_ROWS = 1024  # the most color-matrix rows a writer lays out at a time


def _row_runs(tc: TotalColoring, lower: bool = False):
    """(a, b, cells) for each block a <= u < b of at most _BLOCK_ROWS
    color-matrix rows, in order.  The blocks cut three runs of rows, split
    at the largest distance lo and at n - lo, so every offset of a block
    of the middle run spans all its rows.  cells is the sorted (offset,
    column, shift, start, end) of each offset that rows start <= u < end
    of the block hold, at column u + offset with color column[u + shift].
    The offsets d and, below n/2, n - d are the pairs (u, v > u);
    ``lower`` adds the vertex at 0, -d and, below n/2, d - n."""
    n, cols = tc.n, tc.columns
    cells = [(0, tc.vertex_colors, 0)] if lower else []
    for d, col in cols.items():
        cells += [(d, col, 0), (-d, col, -d)][:1 + lower]
        if 2 * d < n:
            cells += [(n - d, col, n - d), (d - n, col, 0)][:1 + lower]
    cells.sort(key=itemgetter(0))
    lo = max(cols, default=0)
    for first, last in (0, lo), (lo, n - lo), (n - lo, n):
        for a in range(first, last, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, last)
            yield a, b, [(offset, col, shift, max(a, -offset),
                          min(b, n - offset))
                         for offset, col, shift in cells
                         if -offset < b and offset < n - a]


def _pair_blocks(tc: TotalColoring, left=lambda r: r, right=lambda r: r):
    """For each block of _row_runs, [color, left u, right v] of each of its
    colored pairs (u, v), u < v, in sorted order, flattened.  left and
    right label a range of vertices as a sequence, the range itself by
    default; they are given the block's rows [a, b), the window [a,
    min(n, b + lo)) of its unwrapped right ends and, once, the wrapped
    right ends [n - lo, n).  A block is laid out by slice assignment, one
    offset at a time; the rows past an offset's stay None and are dropped
    with the uncolored pairs."""
    n = tc.n
    lo = max(tc.columns, default=0)
    wrapped = right(range(n - lo, n))  # v of the offsets n - d > lo
    for a, b, cells in _row_runs(tc):
        lefts, rights = left(range(a, b)), right(range(a, min(n, b + lo)))
        width = 3 * len(cells)
        block = [None] * (width * (b - a))
        for j, (offset, col, shift, start, end) in enumerate(cells):
            i, k = 3 * j + width * (start - a), 3 * j + width * (end - a)
            block[i:k:width] = col[start + shift:end + shift]
            block[i + 1:k + 1:width] = lefts[start - a:end - a]
            block[i + 2:k + 2:width] = (
                rights[start + offset - a:end + offset - a] if offset <= lo
                else wrapped[start + offset - n + lo:end + offset - n + lo])
        if None in block[0::3]:  # drop padding and uncolored pairs
            keep = [*map(is_not, block[0::3], repeat(None))]
            keep = chain.from_iterable(zip(keep, keep, keep))
            block = [*compress(block, keep)]
        yield block


def to_matrix(tc: TotalColoring) -> list[list]:
    """n x n array: diagonal = vertex colors, off-diagonal = edge colors,
    None = non-edge."""
    n = tc.n
    m = [[None] * n for _ in range(n)]
    for u in range(n):
        m[u][u] = tc.vertex_colors[u]
    for (u, v), c in tc.edge_items():
        m[u][v] = m[v][u] = c
    return m


def matrix_csv_lines(tc: TotalColoring):
    """CSV layout of the published tables, one line at a time: header
    row/column of vertex indices, blank cells for non-edges and uncolored
    vertices.  The blocks of _row_runs(tc, lower=True) are laid out one
    offset at a time, each piece the offset's gap of commas and its color.
    A row is the window of offsets bisect finds in columns 0..n-1; its
    first piece drops its gap, which counts from outside the row."""
    n = tc.n
    # csv quotes a lone empty field, so the header of n = 0 is ""
    yield ",".join(["", *map(str, range(n))]) or '""'
    pieces = {}  # gap -> {color: its piece}
    for a, b, cells in _row_runs(tc, lower=True):
        offsets, width = [cell[0] for cell in cells], len(cells)
        gaps = [0, *map(sub, offsets[1:], offsets)]
        parts = [None] * (width * (b - a))
        for j, (offset, col, shift, start, end) in enumerate(cells):
            colors = col[start + shift:end + shift]
            text = pieces.setdefault(gaps[j], {None: "," * gaps[j]})
            for c in set(colors).difference(text):
                text[c] = text[None] + str(c)
            parts[j + width * (start - a):j + width * (end - a):width] = map(
                text.__getitem__, colors)
        for row, u in zip(count(0, width), range(a, b)):
            k, stop = bisect_left(offsets, -u), bisect_left(offsets, n - u)
            yield "%d%s%s%s%s" % (u, "," * (u + offsets[k] + 1),
                                  parts[row + k][gaps[k]:],
                                  "".join(parts[row + k + 1:row + stop]),
                                  "," * (n - 1 - u - offsets[stop - 1]))


@contextmanager
def _opened(path, *mode, malformed=(), **kwargs):
    """open(path, ...), where an OSError is a PreconditionFailed and an
    exception of a class in ``malformed`` a malformed coloring file."""
    try:
        with open(path, *mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise PreconditionFailed(str(exc)) from exc
    except malformed as exc:
        raise PreconditionFailed("malformed coloring file %s: %s: %s"
                                 % (path, type(exc).__name__, exc)) from exc


def write_matrix_csv(tc: TotalColoring, path) -> None:
    with _opened(path, "w", newline="") as fh:
        fh.writelines(map("%s\r\n".__mod__, matrix_csv_lines(tc)))


_split_commas = re.compile(r"(,+)").split


def _csv_lines(text: str):
    """The non-blank lines of a CSV text, less the comment lines that
    start with '#' (color's stdout ends in one): the first as its fields,
    each later one as (first field, columns, fields) of its other
    non-empty fields, columns counted from 0 (see _filled_cells)."""
    lines = [line for line in text.splitlines() if line[:1] != "#"]
    if any('"' in line or "\0" in line for line in lines):
        lines = filter(None, csv.reader(lines))
        yield from islice(lines, 1)
        for label, *line in lines:
            yield label, [*compress(count(), line)], [*filter(None, line)]
        return
    limit = csv.field_size_limit()
    for i, line in enumerate(filter(None, lines)):
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            raise csv.Error("field larger than field limit (%d)" % limit)
        parts = _split_commas(line)  # field, comma run, field, ...
        if not parts[-1]:  # the line ends in a comma
            del parts[-2:]
        cols = [*accumulate(map(len, parts[1::2]), initial=-1)][1:]
        # blank header fields count toward n
        yield (parts[0], cols, parts[2::2]) if i else line.split(",")


def _filled_cells(text: str):
    """(n, rows, wildcards) of a colour-matrix CSV: rows[u] is the columns
    of row u's integer cells and their colours, wildcards the '*' cells.
    A text with no '"' and no NUL outside its comment lines is split on
    comma runs, one regex call a line, so a blank cell costs nothing;
    csv.reader tokenizes any other, as a quoted field may hold commas or
    span lines and csv rejects NUL before Python 3.11.  Raises csv.Error,
    line by line as csv.reader does, on a field longer than
    csv.field_size_limit(), and ValueError on a non-integer cell or a
    frame other than header ,0,1,...,n-1, row labels 0..n-1 and no filled
    cell past column n-1."""
    lines = _csv_lines(text)
    header = [cell.strip() for cell in next(lines, ["?"])]
    n = len(header) - 1
    if header != ["", *map(str, range(n))]:
        raise ValueError("header row is not ,0,1,...,n-1")
    rows, labels, wildcards = [], [], set()
    for u, (label, cols, cells) in enumerate(lines):
        labels.append(label.strip())
        cells = list(map(str.strip, cells))
        k = bisect_left(cols, n)  # cols[k:] lie past column n-1
        if any(cells[k:]):
            raise ValueError("row %d has a cell past column %d" % (u, n - 1))
        del cols[k:], cells[k:]
        if "*" in cells or "" in cells:  # a wildcard or whitespace cell
            wildcards.update((u, v) for v, c in zip(cols, cells) if c == "*")
            keep = [c not in ("", "*") for c in cells]
            cols, cells = [*compress(cols, keep)], [*compress(cells, keep)]
        rows.append((cols, list(map(int, cells))))
    if labels != header[1:]:
        raise ValueError("row labels are not 0,1,...,n-1")
    return n, rows, wildcards


def parse_matrix_csv_text(text: str):
    """Returns (matrix, wildcards): matrix entries are int/None; cells
    marked '*' are wildcards (legible-in-principle but not trusted)."""
    n, rows, wildcards = _filled_cells(text)
    matrix = [[None] * n for _ in range(n)]
    for row, (cols, colours) in zip(matrix, rows):
        for v, c in zip(cols, colours):
            row[v] = c
    return matrix, wildcards


def coloring_from_csv_text(text: str) -> TotalColoring:
    """Raises PreconditionFailed on wildcard cells, and ValueError unless
    every filled cell equals its mirror across the diagonal."""
    n, rows, wildcards = _filled_cells(text)
    if wildcards:
        raise PreconditionFailed("input matrix has wildcard cells; cannot "
                                 "verify: %s" % sorted(wildcards)[:5])
    vertex_colors = []
    us, vs, cs = [], [], []  # the cells above the diagonal, row by row
    mirror_us, mirror_vs, lower = [], [], []  # below it, as (column, row)
    for u, (cols, colours) in enumerate(rows):
        i = bisect_left(cols, u)  # cols[:i] lie below the diagonal
        j = i + (cols[i:i + 1] == [u])  # cols[j:] above it
        vertex_colors.append(colours[i] if j > i else None)
        us += repeat(u, len(cols) - j)
        vs += cols[j:]
        cs += colours[j:]
        mirror_us += cols[:i]
        mirror_vs += repeat(u, i)
        lower += colours[:i]
    columns = _filled({}, n, us, vs, cs)
    if _filled({}, n, mirror_us, mirror_vs, lower) != columns:
        # the first upper cell in row-major order whose mirror differs,
        # else the first lower cell whose mirror is blank
        upper = dict(zip(zip(us, vs), cs))
        lower = dict(zip(zip(mirror_us, mirror_vs), lower))
        bad = ([(e, c, lower.get(e)) for e, c in upper.items()
                if lower.get(e) != c]
               or [((u, v), c, None) for (v, u), c in lower.items()
                   if (v, u) not in upper])
        (u, v), c, mirror = bad[0]
        raise ValueError("cell (%d, %d) = %s differs from cell (%d, %d) = %s"
                         % (u, v, c, v, u, mirror))
    return TotalColoring(tuple(vertex_colors), columns)


def read_matrix_csv(path, parse=parse_matrix_csv_text):
    """parse(text) of the file: the dense (matrix, wildcards) by default."""
    with _opened(path, malformed=(ValueError, csv.Error),
                 encoding="utf-8-sig") as fh:
        return parse(fh.read())


def coloring_from_json_dict(d: dict) -> TotalColoring:
    """Raises KeyError, TypeError or ValueError on a malformed document:
    an edge colour or endpoint that is not an int (bools included), a
    vertex colour that is neither an int nor null, an edge with u >= v,
    an edge listed twice, an endpoint outside 0..n-1, or an "n" that is
    not the int len(vertex_colors)."""
    # the edges are read after "vertex_colors", as _from_json_columns asks
    return _from_json_columns(d, (list(map(itemgetter(key), d["edges"]))
                                  for key in "uvc"))


def _from_json_columns(d: dict, edges) -> TotalColoring:
    """The checks of coloring_from_json_dict on document d, its edges given
    as the columns (us, vs, cs) of their "u", "v" and "c"."""
    vertex_colors = tuple(d["vertex_colors"])
    us, vs, cs = edges
    kinds = ({*map(type, vertex_colors)} - {type(None)}).union(
        map(type, chain(cs, us, vs)))
    if not kinds <= {int}:
        raise TypeError("colours and endpoints must be integers, not %s"
                        % ", ".join(sorted(k.__name__ for k in kinds - {int})))
    if not all(map(lt, us, vs)):
        u, v = next((u, v) for u, v in zip(us, vs) if u >= v)
        raise ValueError("self-loop edge (%d, %d)" % (u, v) if u == v
                         else "edge endpoints must satisfy u < v")
    n = len(vertex_colors)
    if "n" in d and (type(d["n"]) is not int or d["n"] != n):
        raise ValueError('"n" is %r, but vertex_colors holds %d' % (d["n"], n))
    outside = us and (min(us) < 0 or max(vs) >= n)
    columns = {} if outside else _filled({}, n, us, vs, cs)
    filled = sum(len(col) - col.count(None) for col in columns.values())
    if outside or filled < len(cs):  # an endpoint out of range, or a repeat
        (e, times), = Counter(zip(us, vs)).most_common(1)
        if times > 1:
            raise ValueError("edge %s listed twice" % (e,))
        raise ValueError("edge endpoint %d outside 0..%d" % (
            min(us) if min(us) < 0 else max(vs), n - 1))
    return TotalColoring(vertex_colors, columns)


# The "edges" list as json.dumps(indent=1, sort_keys=True) lays it out: its
# opening, the text after a colour (holding u), the text after u (holding
# v, then opening the next edge), what the last edge drops, and the close.
_EDGE_JSON = ('{\n "edges": [\n  {\n   "c": ', ',\n   "u": %d,\n   "v": ',
              '%d\n  },\n  {\n   "c": ', ',\n  {\n   "c": ', '\n ],')


def coloring_json_chunks(tc: TotalColoring, report: dict | None = None):
    """The JSON document of tc as json.dumps(indent=1, sort_keys=True) lays
    it out, byte for byte for int and None colours, one block of rows at a
    time: "edges" as sorted {"u", "v", "c"} objects, "n", ``report`` when
    given, "vertex_colors".  Each edge is three pieces of text, each
    formatted once per distinct colour and once per block for an
    endpoint; only ``report`` goes through json.dumps.  A block's last
    piece is held back, as only the very last edge drops next_edge."""
    n = tc.n
    opening, with_u, with_v, next_edge, closing = _EDGE_JSON
    colours = {}  # colour -> its text
    held = None  # the last piece so far, opening before the first edge
    for block in _pair_blocks(tc, lambda r: [*map(with_u.__mod__, r)],
                              lambda r: [*map(with_v.__mod__, r)]):
        if block:  # block[3i:3i + 3] is an edge
            for c in set(block[0::3]).difference(colours):
                colours[c] = "%d" % c
            block[0::3] = map(colours.__getitem__, block[0::3])
            block[0] = (opening if held is None else held) + block[0]
            held = block.pop()
            yield "".join(block)
    yield ('{\n "edges": [],' if held is None
           else held[:-len(next_edge)] + closing)
    yield '\n "n": %d,' % n
    if report is not None:
        yield '\n "report": %s,' % json.dumps(
            report, indent=1, sort_keys=True).replace("\n", "\n ")
    yield '\n "vertex_colors": ' + ("[\n  " if n else "[]")
    values = {c: "null" if c is None else "%d" % c for c in tc.vertex_colors}
    for a in range(0, n, _BLOCK_ROWS):
        yield (",\n  " if a else "") + ",\n  ".join(
            map(values.__getitem__, tc.vertex_colors[a:a + _BLOCK_ROWS]))
    yield "\n ]\n}" if n else "\n}"


def write_coloring_json(tc: TotalColoring, path) -> None:
    with _opened(path, "w") as fh:
        fh.writelines(coloring_json_chunks(tc))
        fh.write("\n")


_BLOCK_CHARS = 1 << 16  # the least "edges" text the JSON reader parses at once


def _edge_blocks(text: str):
    """(document less "edges", edge columns) of a text laid out as the
    writer lays "edges" out, else None.  The array is parsed in blocks cut
    at the first edge boundary past _BLOCK_CHARS: a raw newline cannot sit
    in a JSON string, so every cut is structural, and blocks that parse
    join to the very array json.loads reads."""
    opening = '{\n "edges": ['
    start = len(opening)
    end = start if text.startswith("],", start) else text.find("\n ],") + 2
    if not text.startswith(opening) or end < start:
        return None
    # the members after "edges"; "{}" here means a trailing comma
    doc = json.loads("{" + text[end + 2:])
    if not doc or "edges" in doc:
        return None
    us, vs, cs = [], [], []
    while start < end:
        stop = text.find("},\n  {", start + _BLOCK_CHARS, end) + 1 or end
        edges = json.loads("[" + text[start:stop] + "]")
        us += map(itemgetter("u"), edges)
        vs += map(itemgetter("v"), edges)
        cs += map(itemgetter("c"), edges)
        start = stop + 1
    return doc, (us, vs, cs)


def read_coloring_json(path) -> TotalColoring:
    """The coloring of a JSON file, with coloring_from_json_dict's errors.
    A file in the writer's layout is read one block of edges at a time;
    any other text, or one whose blocks fail, is read whole by json.loads,
    which raises what it raises."""
    with _opened(path, malformed=(KeyError, TypeError, ValueError),
                 encoding="utf-8-sig") as fh:
        text = fh.read()
        try:
            blocks = _edge_blocks(text)
        except (KeyError, TypeError, ValueError, RecursionError):
            blocks = None  # not edges in the layout: read whole below
        if blocks is None:
            return coloring_from_json_dict(json.loads(text))
        del text  # the columns take its place
        return _from_json_columns(*blocks)
