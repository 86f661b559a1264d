"""Total, equitable, and neighborhood-sum-distinguishing total colorings
of circulant graphs and powers of cycles, with independent verification
and small-instance brute-force oracles."""

from .graphs import (
    CirculantGraph,
    build_circulant,
    classify_sum_free_half,
    generates_group,
    power_of_cycle,
)
from .coloring import BuildReport, TotalColoring
from .factorization import (
    EdgeColoring,
    Factorization,
    edge_color_delta_plus_one,
    one_factorize,
)
from .constructions import (
    canonical_complete_coloring,
    canonical_first_row,
    color_power_cycle_even,
    color_power_cycle_odd,
    color_thm31,
    color_thm32,
    color_thm33,
    color_thm34,
    equitable_nsd_power_cycle,
)
from .verifiers import (
    TypeLabel,
    VerificationReport,
    verify_nsd,
    verify_total_coloring,
)
from .oracle import (
    Mode,
    OracleResult,
    Quantity,
    exact_chromatic_index,
    exact_feasible,
    exact_total_chromatic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
