"""Maximum labelled clique solver.

Finds the largest clique whose edges use at most a budgeted number of
distinct labels and, among equally large feasible cliques, the one using
fewest labels.  Sequential and parallel two-pass branch-and-bound solvers
share one pass loop, a bitset graph encoding and a greedy-colouring
bound; an exhaustive oracle, DIMACS/label-file IO and a CLI round out the
package.
"""

from .colouring import ColourResult, colour_order
from .graph import (
    Graph,
    GraphError,
    LabelledGraph,
    Permutation,
    build_graph,
    build_labelled,
    clique_cost,
    label_indices,
    permute_by_degree,
)
from .graph_io import (
    InstanceSpec,
    ParseError,
    fixture_path,
    parse_dimacs,
    parse_labels,
    random_labels,
    resolve_budget,
    splitmix_next,
    write_dimacs,
    write_labels,
)
from .oracle import oracle_solve
from .parallel import solve_parallel, split_root
from .sequential import (Incumbent, SearchStats, Solution, Subproblem, incumbent_key, is_better,
                         solve)

__version__ = "0.1.0"

__all__ = [
    "ColourResult",
    "Graph",
    "GraphError",
    "Incumbent",
    "InstanceSpec",
    "LabelledGraph",
    "ParseError",
    "Permutation",
    "SearchStats",
    "Solution",
    "Subproblem",
    "build_graph",
    "build_labelled",
    "clique_cost",
    "colour_order",
    "fixture_path",
    "incumbent_key",
    "is_better",
    "label_indices",
    "oracle_solve",
    "parse_dimacs",
    "parse_labels",
    "permute_by_degree",
    "random_labels",
    "resolve_budget",
    "solve",
    "solve_parallel",
    "split_root",
    "splitmix_next",
    "write_dimacs",
    "write_labels",
]
