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

from .coloring import BuildReport, parse_matrix_csv_text, to_matrix
from .constructions import (
    color_power_cycle_odd,
    color_thm32,
    color_thm34,
    equitable_nsd_power_cycle,
)
from .errors import CirculantColoringError, MismatchFound
from .graphs import build_circulant

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
    return parse_matrix_csv_text(ref.read_text(encoding="utf-8-sig"))


@lru_cache(maxsize=None)
def _pair(thm34: bool):
    """The (equitable, nsd) reports of one builder run, printed as two
    tables: 2 and 3 (Theorem 2.2), or 5 and 6 (Theorem 3.4)."""
    if not thm34:
        return equitable_nsd_power_cycle(18, 4)
    return color_thm34(build_circulant(18, [1, 2, 4, 6, 7, 8]),
                       build_circulant(18, [1, 2, 4, 6]))


@lru_cache(maxsize=None)
def rebuild_table(table_id: int) -> BuildReport:
    """The report of the construction a published table was generated
    from: its coloring, and the verifier's report that accepted it, with
    the equitable verdict for tables 2 and 5 and the NSD one for 3 and 6."""
    if table_id == 1:
        return color_power_cycle_odd(21, 6, 1)
    if table_id in (2, 3, 5, 6):
        equitable, nsd = _pair(thm34=table_id > 4)
        return equitable if table_id in (2, 5) else nsd
    if table_id == 4:
        return color_thm32(build_circulant(24, [1, 3, 4, 5, 10]))
    raise CirculantColoringError("no table %r" % (table_id,))


def compare_table(table_id: int) -> tuple[int, list[CellMismatch]]:
    """Diff the rebuilt coloring against the fixture's trusted cells:
    (number of trusted cells, the cells that differ)."""
    fixture, _wild = load_table(table_id)
    ours = to_matrix(rebuild_table(table_id).coloring)
    checked = sum(len(row) - row.count(None) for row in fixture)
    return checked, [CellMismatch(i, j, want, ours[i][j])
                     for i, row in enumerate(fixture)
                     for j, want in enumerate(row)
                     if want is not None and ours[i][j] != want]


def reproduce_table(table_id: int) -> int:
    """Number of cells checked; raises MismatchFound on any difference."""
    checked, mismatches = compare_table(table_id)
    if mismatches:
        raise MismatchFound(
            "table %d: %d cells differ, first %s"
            % (table_id, len(mismatches), mismatches[0]))
    return checked
