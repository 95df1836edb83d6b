"""Grid materialisation and cell execution for the sweep farm.

A farm directory is self-describing: its grid configuration is a JSON
document (stored in the run table's ``meta`` under ``"grid"``) from
which the cell list re-materialises deterministically, and every cell's
parameters are JSON payloads.  That forces the naming/adversary axis of
a sweep through *descriptors* — ``{"type": "random", "seed": 3}``
rather than live objects — with a small parser for the CLI's compact
spellings (``random:3``).  The descriptor set covers the namings and
adversaries the experiment scripts actually sweep; in-process callers
with exotic namings keep using :func:`repro.analysis.experiments.sweep`
directly, which takes live objects.

Three cell kinds execute here:

* ``run`` — build the problem's system under one naming × adversary
  combination, run it to ``max_steps``, collect metrics and check the
  spec's safety properties on the trace.  The result dict is fully
  deterministic (seeded adversaries, no wall-clock fields), so an
  interrupted-and-resumed farm produces byte-identical results to an
  uninterrupted one.
* ``verify`` — an exhaustive graph-retaining
  :func:`~repro.verify.runner.verify_instance` walk; the retained
  :class:`~repro.verify.graph.StateGraph` is persisted into the farm's
  disk store (:mod:`repro.farm.store`) and the result records its
  canonical sha256 digest, which is likewise bit-stable across resume.
* ``fuzz`` — one shard of a seeded fuzz run (:mod:`repro.fuzz`): the
  grid's ``"fuzz"`` block fixes the root seed and total episode
  budget, and each cell executes a contiguous range of globally
  numbered episodes.  Episode RNGs derive from the global episode
  index, so the union of all cells is exactly the one-shot run and a
  resumed farm is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import FarmError
from repro.farm.runtable import Cell

__all__ = [
    "parse_naming_spec",
    "parse_adversary_spec",
    "build_naming",
    "build_adversary",
    "describe_descriptor",
    "grid_cells",
    "resolve_grid_params",
    "default_checkers",
    "execute_cell",
]


# -- descriptors -------------------------------------------------------

def parse_naming_spec(text: str) -> Dict[str, Any]:
    """Parse a CLI naming spelling into a descriptor.

    ``identity`` → ``{"type": "identity"}``;
    ``random:SEED`` → ``{"type": "random", "seed": SEED}``.
    """
    head, _, arg = text.strip().partition(":")
    if head == "identity" and not arg:
        return {"type": "identity"}
    if head == "random":
        return {"type": "random", "seed": int(arg or 0)}
    raise FarmError(
        f"unknown naming spec {text!r}; expected 'identity' or 'random:SEED'"
    )


def parse_adversary_spec(text: str) -> Dict[str, Any]:
    """Parse a CLI adversary spelling into a descriptor.

    ``round-robin`` | ``random:SEED`` | ``burst:SEED`` |
    ``staged:PREFIX:SEED`` (the obstruction-freedom schedule: PREFIX
    contended steps, then each process runs solo).
    """
    parts = text.strip().split(":")
    head = parts[0]
    if head == "round-robin" and len(parts) == 1:
        return {"type": "round-robin"}
    if head == "random" and len(parts) <= 2:
        return {"type": "random", "seed": int(parts[1]) if len(parts) == 2 else 0}
    if head == "burst" and len(parts) <= 2:
        return {"type": "burst", "seed": int(parts[1]) if len(parts) == 2 else 0}
    if head == "staged" and len(parts) <= 3:
        prefix = int(parts[1]) if len(parts) >= 2 else 50
        seed = int(parts[2]) if len(parts) == 3 else 0
        return {"type": "staged", "prefix": prefix, "seed": seed}
    raise FarmError(
        f"unknown adversary spec {text!r}; expected 'round-robin', "
        "'random:SEED', 'burst:SEED' or 'staged:PREFIX:SEED'"
    )


def build_naming(descriptor: Dict[str, Any]):
    """Instantiate the naming assignment a descriptor names."""
    from repro.memory.naming import IdentityNaming, RandomNaming

    kind = descriptor.get("type")
    if kind == "identity":
        return IdentityNaming()
    if kind == "random":
        return RandomNaming(int(descriptor["seed"]))
    raise FarmError(f"unknown naming descriptor {descriptor!r}")


def build_adversary(descriptor: Dict[str, Any]):
    """Instantiate the adversary a descriptor names (freshly seeded)."""
    from repro.runtime.adversary import (
        AlternatingBurstAdversary,
        RandomAdversary,
        RoundRobinAdversary,
        StagedObstructionAdversary,
    )

    kind = descriptor.get("type")
    if kind == "round-robin":
        return RoundRobinAdversary()
    if kind == "random":
        return RandomAdversary(int(descriptor["seed"]))
    if kind == "burst":
        return AlternatingBurstAdversary(int(descriptor["seed"]))
    if kind == "staged":
        return StagedObstructionAdversary(
            prefix_steps=int(descriptor["prefix"]), seed=int(descriptor["seed"])
        )
    raise FarmError(f"unknown adversary descriptor {descriptor!r}")


def describe_descriptor(descriptor: Dict[str, Any]) -> str:
    """Compact CLI spelling of a descriptor (inverse of the parsers)."""
    kind = descriptor.get("type", "?")
    if kind == "staged":
        return f"staged:{descriptor['prefix']}:{descriptor['seed']}"
    if "seed" in descriptor:
        return f"{kind}:{descriptor['seed']}"
    return str(kind)


# -- the grid ----------------------------------------------------------

def resolve_grid_params(spec, config: Dict[str, Any]) -> Dict[str, Any]:
    """The builder params a grid config names (same precedence as
    :func:`~repro.analysis.experiments.sweep_problem`: explicit params,
    then the named instance, then the spec's first declared instance)."""
    if config.get("params") is not None:
        return dict(config["params"])
    if config.get("instance") is not None:
        return spec.instance(config["instance"]).params_dict()
    if spec.instances:
        return spec.instances[0].params_dict()
    return {}


def grid_cells(config: Dict[str, Any]) -> List[Cell]:
    """Materialise a grid config into its cell list, deterministically.

    A config with a ``"fuzz"`` block shards that block's episode budget
    into contiguous fuzz cells and nothing else.  Otherwise run cells
    come first in naming-major order (the same nesting
    :func:`~repro.analysis.experiments.sweep` uses), then — when the
    config asks for graph retention — one verify cell at the end.
    """
    cells: List[Cell] = []
    if config.get("fuzz") is not None:
        fuzz = config["fuzz"]
        episodes = int(fuzz["episodes"])
        per_cell = max(1, int(fuzz.get("episodes_per_cell") or 1))
        for base in range(0, episodes, per_cell):
            cells.append(
                Cell(
                    index=len(cells),
                    kind="fuzz",
                    payload={
                        "episode_base": base,
                        "episodes": min(per_cell, episodes - base),
                    },
                )
            )
        return cells
    for naming in config["namings"]:
        for adversary in config["adversaries"]:
            cells.append(
                Cell(
                    index=len(cells),
                    kind="run",
                    payload={"naming": naming, "adversary": adversary},
                )
            )
    if config.get("retain_graph"):
        cells.append(Cell(index=len(cells), kind="verify", payload={}))
    return cells


# -- execution ---------------------------------------------------------

def default_checkers(spec, inputs) -> List[Any]:
    """Trace checkers matching a spec's declared safety invariant.

    Safety only: liveness checkers presume schedules that grant solo
    opportunities, which arbitrary grid adversaries do not — exhaustive
    liveness belongs to the farm's verify cells, where it needs no
    adversary sampling at all.  The declaration names its own checkers
    (:meth:`~repro.runtime.invariants.StateInvariant.trace_checkers`);
    a spec whose invariant is undeclared or absent checks nothing here
    (the run still records metrics/outputs).
    """
    from repro.runtime.invariants import StateInvariant

    if isinstance(spec.invariant, StateInvariant):
        return spec.invariant.trace_checkers(inputs)
    return []


def _run_cell_result(spec, params: Dict[str, Any], cell: Cell,
                     max_steps: int) -> Dict[str, Any]:
    from repro.analysis.metrics import collect_metrics
    from repro.errors import SpecViolation
    from repro.runtime.system import System

    naming = build_naming(cell.payload["naming"])
    adversary = build_adversary(cell.payload["adversary"])
    inputs = spec.inputs(params)
    system = System(spec.build(params), inputs, naming=naming)
    trace = system.run(adversary, max_steps=max_steps)
    metrics = collect_metrics(trace)
    violations: List[str] = []
    for checker in default_checkers(spec, inputs):
        try:
            checker.check(trace)
        except SpecViolation as exc:
            violations.append(str(exc))
    # Deterministic by construction: seeded adversaries, no wall-clock
    # or host fields — resume must reproduce these bytes exactly.
    return {
        "verdict": "ok" if not violations else "violation",
        "naming": naming.describe(),
        "adversary": adversary.describe(),
        "events": metrics.total_events,
        "reads": metrics.total_reads,
        "writes": metrics.total_writes,
        "decided": metrics.decided_count,
        "violations": violations,
    }


def _verify_cell_result(spec, params: Dict[str, Any], config: Dict[str, Any],
                        graph_dir: Optional[Path]) -> Dict[str, Any]:
    from repro.problems.spec import ProblemInstance
    from repro.request import RunRequest
    from repro.verify.runner import verify_instance

    if config.get("instance") is not None:
        instance = spec.instance(config["instance"])
    else:
        # Explicit params (or spec defaults): synthesize an unregistered
        # instance record so verify_instance can budget the walk.
        rendered = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        instance = ProblemInstance(
            label=f"{spec.key}({rendered})",
            params=tuple(sorted(params.items())),
            roles=("verify",),
        )
    report = verify_instance(
        spec,
        instance,
        request=RunRequest(max_states=config.get("verify_max_states")),
    )
    graph = report.exploration.graph
    result: Dict[str, Any] = {
        "verdict": "verified" if report.ok else "failed",
        "instance": instance.label,
        "states": report.exploration.states_explored,
        "retained_edges": report.retained_edges,
        "properties": [
            {
                "kind": outcome.declared.kind,
                "theorem": outcome.declared.theorem,
                "ok": outcome.ok,
            }
            for outcome in report.outcomes
        ],
    }
    if graph is not None:
        result["graph_sha256"] = graph.digest()
        if graph_dir is not None:
            from repro.farm.store import graph_store_bytes, write_state_graph

            write_state_graph(graph, graph_dir)
            result["graph_store_bytes"] = graph_store_bytes(graph_dir)
    return result


def _fuzz_cell_result(config: Dict[str, Any], cell: Cell) -> Dict[str, Any]:
    from repro.fuzz.engine import run_fuzz
    from repro.request import RunRequest

    fuzz = config["fuzz"]
    report = run_fuzz(
        RunRequest(
            problem=config["problem"],
            instance=config.get("instance"),
            params=config.get("params"),
            seed=int(fuzz.get("seed") or 0),
            max_steps=fuzz.get("max_steps"),
            max_states=fuzz.get("max_states"),
        ),
        episodes=int(cell.payload["episodes"]),
        episode_base=int(cell.payload["episode_base"]),
        families=fuzz.get("families"),
    )
    # FuzzReport.to_dict is wall-clock-free, so resume reproduces the
    # exact bytes an uninterrupted farm writes.
    return report.to_dict()


def execute_cell(
    config: Dict[str, Any],
    cell: Cell,
    graphs_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Execute one claimed cell of a grid; returns its JSON result.

    ``graphs_dir`` is the farm's graph-store root; verify cells persist
    their retained StateGraph under ``<graphs_dir>/cell-<index>`` when
    it is given and skip persistence when it is ``None``.
    """
    from repro.problems import get_problem

    spec = get_problem(config["problem"])
    if cell.kind == "fuzz":
        return _fuzz_cell_result(config, cell)
    params = resolve_grid_params(spec, config)
    if cell.kind == "run":
        return _run_cell_result(spec, params, cell, int(config["max_steps"]))
    if cell.kind == "verify":
        graph_dir = (
            Path(graphs_dir) / f"cell-{cell.index:05d}"
            if graphs_dir is not None
            else None
        )
        return _verify_cell_result(spec, params, config, graph_dir)
    raise FarmError(f"unknown cell kind {cell.kind!r} at index {cell.index}")
