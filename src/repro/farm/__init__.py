"""The sweep farm: resumable, disk-backed grid execution.

Layers (each its own module, composable separately):

* :mod:`repro.farm.runtable` — the claimable-cell run table (a sqlite
  claim/finish protocol);
* :mod:`repro.farm.cells` — grid materialisation from a JSON config and
  the execution of individual run/verify cells;
* :mod:`repro.farm.store` — disk-backed StateGraph retention (the
  graph's own CSR arrays, mmapped; byte-identical ``to_bytes`` to the
  in-RAM graph);
* :mod:`repro.farm.orchestrator` — create/drain/resume over a farm
  directory, per-worker manifest streams, multi-process draining.

``python -m repro sweep --out DIR`` is the CLI face; see
docs/EXPLORATION.md ("The sweep farm") for the directory layout, claim
protocol and resume semantics.
"""

from repro.farm.cells import (
    build_adversary,
    build_naming,
    default_checkers,
    describe_descriptor,
    execute_cell,
    grid_cells,
    parse_adversary_spec,
    parse_naming_spec,
    resolve_grid_params,
)
from repro.farm.orchestrator import (
    GRAPHS_DIRNAME,
    MANIFEST_PREFIX,
    FarmResult,
    create_farm,
    drain_farm,
    farm_result,
    is_farm_dir,
    open_farm,
    resume_farm,
    run_farm,
)
from repro.farm.runtable import (
    STATUSES,
    Cell,
    CellRow,
    SqliteRunTable,
)
from repro.farm.store import (
    GRAPHSTORE_SCHEMA,
    DiskStateGraph,
    graph_store_bytes,
    load_state_graph,
    write_state_graph,
)

__all__ = [
    "STATUSES",
    "Cell",
    "CellRow",
    "SqliteRunTable",
    "GRAPHSTORE_SCHEMA",
    "DiskStateGraph",
    "write_state_graph",
    "load_state_graph",
    "graph_store_bytes",
    "GRAPHS_DIRNAME",
    "MANIFEST_PREFIX",
    "FarmResult",
    "create_farm",
    "open_farm",
    "resume_farm",
    "drain_farm",
    "run_farm",
    "farm_result",
    "is_farm_dir",
    "grid_cells",
    "execute_cell",
    "default_checkers",
    "resolve_grid_params",
    "parse_naming_spec",
    "parse_adversary_spec",
    "describe_descriptor",
    "build_naming",
    "build_adversary",
]
