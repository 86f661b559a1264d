"""Shipped color-matrix fixtures and the machinery to reproduce them.

Each fixture is the CSV transcription of one published table.  Blank
cells were blank in the source (non-edges, or edges outside the partial
matrix shown); cells marked '*' are printed in the source but are not
trusted, because the printed value contradicts the construction rule and
the surrounding cells (see the repository notes for the list).

Reproduction rebuilds the corresponding construction from scratch and
diffs it against every trusted fixture cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .coloring import TotalColoring, parse_matrix_csv_text, to_matrix
from .constructions import (
    color_power_cycle_odd,
    color_thm32,
    color_thm34,
    equitable_nsd_power_cycle,
)
from .errors import CirculantColoringError, MismatchFound
from .graphs import GeneratorSet, build_circulant, normalize_half_set

TABLE_IDS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class CellMismatch:
    row: int
    col: int
    expected: int
    actual: int | None


def load_table(table_id: int):
    """(matrix, wildcards) for a shipped fixture; matrix cells are
    int or None."""
    name = "table%d.csv" % table_id
    ref = resources.files(__package__).joinpath("golden").joinpath(name)
    if not ref.is_file():
        raise CirculantColoringError("fixture %s is not shipped" % name)
    return parse_matrix_csv_text(ref.read_text())


@lru_cache(maxsize=None)
def rebuild_table(table_id: int) -> TotalColoring:
    """Re-run the construction a published table was generated from."""
    if table_id == 1:
        return color_power_cycle_odd(21, 6, 1).coloring
    if table_id in (2, 3):
        equitable, nsd = equitable_nsd_power_cycle(18, 4)
        return (equitable if table_id == 2 else nsd).coloring
    if table_id == 4:
        return color_thm32(build_circulant(24, [1, 3, 4, 5, 10])).coloring
    if table_id in (5, 6):
        g = build_circulant(18, [1, 2, 4, 6, 7, 8])
        s1 = GeneratorSet(18, normalize_half_set(18, [1, 2, 4, 6]))
        equitable, nsd = color_thm34(g, s1)
        return (equitable if table_id == 5 else nsd).coloring
    raise CirculantColoringError("no table %r" % (table_id,))


def compare_table(table_id: int) -> list[CellMismatch]:
    """Diff the rebuilt coloring against the fixture's trusted cells."""
    fixture, _wild = load_table(table_id)
    ours = to_matrix(rebuild_table(table_id))
    out = []
    for i, row in enumerate(fixture):
        for j, want in enumerate(row):
            if want is None:
                continue
            got = ours[i][j]
            if got != want:
                out.append(CellMismatch(i, j, want, got))
    return out


def reproduce_table(table_id: int) -> int:
    """Number of cells checked; raises MismatchFound on any difference."""
    mismatches = compare_table(table_id)
    if mismatches:
        raise MismatchFound(
            "table %d: %d cells differ, first %s"
            % (table_id, len(mismatches), mismatches[0]),
            mismatches=mismatches,
        )
    fixture, _wild = load_table(table_id)
    return sum(1 for row in fixture for cell in row if cell is not None)
