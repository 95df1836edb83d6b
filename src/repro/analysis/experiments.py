"""Sweep harness: run an algorithm across namings × adversaries × seeds.

Every possibility-side experiment has the same shape: build a system,
run it under a schedule, check the theorem's properties on the trace,
collect metrics, and aggregate over a battery of namings and adversaries.
:func:`sweep` is that loop; :class:`SweepResult` is what the benchmark
tables are printed from.

The (naming × adversary) cells of a sweep are independent runs, so the
loop is expressed as an ordered ``map`` over an executor — the same
serial/parallel abstraction the exploration backends use
(:class:`~repro.runtime.backends.SerialExecutor` /
:class:`~repro.runtime.backends.ProcessExecutor`).  Every adversary's
``reset()`` reseeds from its stored seed, so cells are independent of
execution order and the executor choice changes wall time only, never
the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.errors import ConfigurationError, SpecViolation
from repro.memory.naming import NamingAssignment
from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.adversary import Adversary
from repro.runtime.automaton import Algorithm
from repro.runtime.events import Trace
from repro.runtime.system import System
from repro.spec.properties import PropertyChecker


@dataclass
class RunRecord:
    """One (naming, adversary) cell of a sweep."""

    naming: str
    adversary: str
    trace: Trace
    metrics: RunMetrics
    violations: List[SpecViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every checked property held."""
        return not self.violations


@dataclass
class SweepResult:
    """All runs of one sweep, with aggregate queries."""

    algorithm: str
    records: List[RunRecord] = field(default_factory=list)

    @property
    def runs(self) -> int:
        """Total runs performed."""
        return len(self.records)

    @property
    def all_ok(self) -> bool:
        """True when no run violated any checked property."""
        return all(record.ok for record in self.records)

    @property
    def failures(self) -> List[RunRecord]:
        """Runs with at least one violation."""
        return [record for record in self.records if not record.ok]

    def metric_values(self, extract: Callable[[RunRecord], float]) -> List[float]:
        """Apply ``extract`` to every record (for distribution summaries)."""
        return [extract(record) for record in self.records]

    def describe_failures(self, limit: int = 3) -> str:
        """Short multi-line description of the first few failures."""
        lines = []
        for record in self.failures[:limit]:
            for violation in record.violations:
                lines.append(
                    f"[{record.naming} / {record.adversary}] {violation}"
                )
        remaining = len(self.failures) - limit
        if remaining > 0:
            lines.append(f"... and {remaining} more failing runs")
        return "\n".join(lines)


#: Worker-process payload for parallel sweeps: (algorithm_factory,
#: inputs, cells, checkers_factory, max_steps).  Planted once per worker
#: via the executor's initializer hook; under the default ``fork`` start
#: method it is inherited, not pickled, so closure-based factories (the
#: house style in benchmarks) keep working in parallel sweeps.
_SweepPayload = Tuple[
    Callable[[], Algorithm],
    Any,
    Tuple[Tuple[NamingAssignment, Adversary], ...],
    Callable[..., Iterable[PropertyChecker]],
    int,
]

_SWEEP: Optional[_SweepPayload] = None


def _init_sweep_worker(payload: _SweepPayload) -> None:
    global _SWEEP
    _SWEEP = payload


def _run_sweep_cell(index: int) -> RunRecord:
    """Run one (naming, adversary) cell of the planted sweep payload.

    A module-level function of the cell *index* only, so the executor's
    task traffic is one int per cell; everything heavy rides in the
    per-process payload.  Depends on nothing mutable across calls —
    adversaries reseed in ``system.run`` — so serial and parallel
    executors produce identical records in identical order.
    """
    assert _SWEEP is not None, "sweep worker initializer did not run"
    algorithm_factory, inputs, cells, checkers_factory, max_steps = _SWEEP
    naming, adversary = cells[index]
    system = System(algorithm_factory(), inputs, naming=naming)
    trace = system.run(adversary, max_steps=max_steps)
    record = RunRecord(
        naming=naming.describe(),
        adversary=adversary.describe(),
        trace=trace,
        metrics=collect_metrics(trace),
    )
    try:
        checkers = checkers_factory(adversary)
    except TypeError:
        checkers = checkers_factory()
    for checker in checkers:
        try:
            checker.check(trace)
        except SpecViolation as exc:
            record.violations.append(exc)
    return record


def sweep(
    algorithm_factory: Callable[[], Algorithm],
    inputs,
    namings: Sequence[NamingAssignment],
    adversaries: Sequence[Adversary],
    checkers_factory: Callable[..., Iterable[PropertyChecker]],
    max_steps: int = 200_000,
    backend: Optional[Union[str, Any]] = None,
    telemetry: Optional[TelemetrySink] = None,
    manifest_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Run every naming × adversary combination and check each trace.

    ``algorithm_factory`` is called once per run (some algorithms carry
    per-instance state such as slot counters).  ``checkers_factory``
    builds fresh checkers per run; it is called with the adversary when
    it accepts an argument, so callers can drop liveness checks for
    schedules that give no solo opportunities (obstruction-freedom
    guarantees nothing under, say, strict round-robin — and Figure 2
    really does livelock there, which is a feature of the model, not a
    bug).  Violations are *collected*, not raised — impossibility-side
    sweeps count them.

    ``backend`` fans the independent cells out, in the same vocabulary
    the explorer uses: ``"serial"`` (the default — the historical
    in-process loop via
    :class:`~repro.runtime.backends.SerialExecutor`), ``"process"``
    (worker processes via
    :class:`~repro.runtime.backends.ProcessExecutor`, bit-identical
    records, see module docstring), or an executor instance.

    ``telemetry`` receives the per-sweep counters (``sweep.cells``,
    ``sweep.violations``) and the ``sweep.map`` phase timer;
    ``manifest_dir`` additionally writes one
    :class:`~repro.obs.manifest.RunManifest` per cell (NDJSON, one line
    per cell) into that directory — the after-the-fact audit record of
    what each cell ran.
    """
    from repro.runtime.backends import resolve_executor

    chosen = resolve_executor(backend if backend is not None else "serial")
    if telemetry is None:
        telemetry = NULL_TELEMETRY

    cells = tuple(
        (naming, adversary) for naming in namings for adversary in adversaries
    )
    payload: _SweepPayload = (
        algorithm_factory, inputs, cells, checkers_factory, max_steps,
    )
    with telemetry.phase("sweep.map"):
        records = chosen.map(
            _run_sweep_cell,
            list(range(len(cells))),
            initializer=_init_sweep_worker,
            initargs=(payload,),
        )
    result = SweepResult(algorithm=algorithm_factory().name, records=records)
    if telemetry.enabled:
        telemetry.count("sweep.cells", len(records))
        telemetry.count(
            "sweep.violations",
            sum(len(record.violations) for record in records),
        )
        telemetry.event(
            "sweep.done",
            algorithm=result.algorithm,
            cells=len(records),
            backend=chosen.name,
            workers=chosen.workers,
            all_ok=result.all_ok,
        )
    if manifest_dir is not None:
        write_sweep_manifests(
            result, Path(manifest_dir),
            backend=chosen.name, workers=chosen.workers,
            max_steps=max_steps,
        )
    return result


def sweep_problem(
    problem: str,
    namings: Sequence[NamingAssignment],
    adversaries: Sequence[Adversary],
    checkers_factory: Callable[..., Iterable[PropertyChecker]],
    instance: Optional[str] = None,
    params: Optional[dict] = None,
    manifest_dir: Optional[Union[str, Path]] = None,
    *,
    request: Optional[Any] = None,
) -> SweepResult:
    """:func:`sweep`, with the algorithm resolved through the problem
    registry instead of a hand-built factory.

    ``problem`` is a :mod:`repro.problems` key (e.g.
    ``"figure-1-mutex"``); the algorithm factory and inputs come from
    the spec.  Parameters are taken from, in order of precedence:
    ``params`` (an explicit dict), the registry instance named by
    ``instance``, or — when both are omitted — the spec's first declared
    instance.  Everything else forwards to :func:`sweep`.

    Execution choices (``max_steps``, ``backend``, ``telemetry``, plus
    ``instance``/``params`` defaults) ride on a
    :class:`~repro.request.RunRequest` passed as ``request=``.
    """
    from functools import partial

    from repro.problems import get_problem

    backend: Any = None
    max_steps: Optional[int] = None
    telemetry: Any = None
    if request is not None:
        backend = request.backend
        max_steps = request.max_steps
        telemetry = request.telemetry
        if instance is None and request.instance is not None:
            instance = request.instance
        if params is None and request.params is not None:
            params = request.params_dict()
    if max_steps is None:
        max_steps = 200_000

    spec = get_problem(problem)
    if params is not None:
        if instance is not None:
            raise ConfigurationError(
                "pass either params= or instance=, not both"
            )
        chosen_params = dict(params)
    elif instance is not None:
        chosen_params = spec.instance(instance).params_dict()
    elif spec.instances:
        chosen_params = spec.instances[0].params_dict()
    else:
        chosen_params = {}
    return sweep(
        partial(spec.build, chosen_params),
        spec.inputs(chosen_params),
        namings,
        adversaries,
        checkers_factory,
        max_steps=max_steps,
        backend=backend,
        telemetry=telemetry,
        manifest_dir=manifest_dir,
    )


def write_sweep_manifests(
    result: SweepResult,
    directory: Path,
    backend: str = "serial",
    workers: int = 1,
    max_steps: int = 0,
) -> Path:
    """Write one manifest per sweep cell as NDJSON under ``directory``.

    The file is named after the algorithm (slugged); an existing file
    gets a numeric suffix instead of being overwritten, so repeated
    sweeps in one telemetry directory all keep their records.
    """
    from repro.obs.manifest import RunManifest, write_manifests_ndjson

    slug = "".join(
        ch if ch.isalnum() or ch in "-_" else "-" for ch in result.algorithm.lower()
    ).strip("-")
    target = directory / f"sweep-{slug}.ndjson"
    suffix = 1
    while target.exists():
        suffix += 1
        target = directory / f"sweep-{slug}-{suffix}.ndjson"
    manifests = []
    for index, record in enumerate(result.records):
        manifests.append(
            RunManifest.create(
                kind="sweep-cell",
                algorithm=result.algorithm,
                parameters={"cell": index, "max_steps": max_steps},
                naming=record.naming,
                adversary=record.adversary,
                backend=backend,
                workers=workers,
                outcome={
                    "verdict": "ok" if record.ok else "violation",
                    "events": len(record.trace),
                    "violations": [str(v) for v in record.violations],
                },
            )
        )
    return write_manifests_ndjson(manifests, target)


def gives_solo_opportunities(adversary: Adversary) -> bool:
    """Whether a schedule eventually lets each process run alone.

    Used to decide if obstruction-free *termination* may be demanded of
    a run driven by this adversary.
    """
    from repro.runtime.adversary import SoloAdversary, StagedObstructionAdversary

    return isinstance(adversary, (SoloAdversary, StagedObstructionAdversary))


def solo_run(
    algorithm_factory: Callable[[], Algorithm],
    inputs,
    pid,
    naming: Optional[NamingAssignment] = None,
    max_steps: int = 1_000_000,
) -> Trace:
    """Run a single process alone to completion (obstruction-free bounds).

    All other participants exist (their views are allocated) but never
    take a step — the paper's "runs alone from the beginning" scenario.
    """
    from repro.runtime.adversary import SoloAdversary

    system = System(algorithm_factory(), inputs, naming=naming)
    return system.run(SoloAdversary(pid), max_steps=max_steps)
