"""The problem registry: every shipped algorithm as a :class:`ProblemSpec`.

This table is the *only* place the repository enumerates its algorithms.
Consumers derive their views from it:

* the lint passes get their automaton classes and small dynamic-pass
  instances (:mod:`repro.lint.registry` adapts the ``"lint"``-role
  instances into its historical ``LintTarget`` shape);
* ``python -m repro verify`` runs the ``"verify"``-role instances
  through exhaustive safety + liveness checking (:mod:`repro.verify`);
* the exploration benchmark builds its rows from the ``"bench"``-role
  instances (labels are the ``BENCH_explore.json`` trajectory keys);
* the sweep harness resolves algorithm factories by problem key
  (:func:`repro.analysis.experiments.sweep_problem`).

Mutants (``mutant=True``) are algorithms deliberately configured in a
forbidden regime — they are excluded from every "shipped" view and exist
so the verifier can demonstrate a *found* counterexample (the Theorem
3.4 even-``m`` livelock) rather than only ever confirming theorems.

Process identifiers follow the test suite's convention (>= 100) so they
can never collide with register indices or loop counters.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterator, List, Tuple, Type

from repro.problems.spec import (
    AutomatonFootprint,
    Inputs,
    LivenessProperty,
    ProblemInstance,
    ProblemSpec,
)
from repro.runtime.automaton import ProcessAutomaton
from repro.runtime.exploration import (
    agreement_invariant,
    conjoin,
    mutual_exclusion_invariant,
    unique_names_invariant,
    validity_invariant,
)
from repro.types import ProcessId

PIDS: Tuple[ProcessId, ...] = (101, 103, 107, 109)


def pids(n: int) -> Tuple[ProcessId, ...]:
    """The first ``n`` conventional process identifiers."""
    return PIDS[:n]


def _mutex_pids(params: Dict) -> Inputs:
    return pids(params.get("n", 2))


def _consensus_inputs(params: Dict) -> Inputs:
    n = params.get("n", 2)
    if params.get("equal"):
        return {pid: "same" for pid in pids(n)}
    return {pid: f"v{k}" for k, pid in enumerate(pids(n))}


def _binary_inputs(params: Dict) -> Inputs:
    return {PIDS[0]: 1, PIDS[1]: 2}


def _ring_naming(params: Dict):
    from repro.memory.naming import RingNaming

    return RingNaming.equispaced(pids(params.get("n", 2)), params["m"])


def _specs() -> Tuple[ProblemSpec, ...]:
    from repro.baselines.named_consensus import (
        NamedConsensus,
        NamedConsensusProcess,
    )
    from repro.baselines.named_mutex import PetersonMutex, TournamentMutexProcess
    from repro.baselines.named_renaming import (
        ElectionChainProcess,
        ElectionChainRenaming,
    )
    from repro.baselines.splitter_renaming import (
        SplitterRenaming,
        SplitterRenamingProcess,
    )
    from repro.core.consensus import AnonymousConsensus, AnonymousConsensusProcess
    from repro.core.election import AnonymousElection
    from repro.core.mutex import AnonymousMutex, AnonymousMutexProcess
    from repro.core.renaming import AnonymousRenaming, AnonymousRenamingProcess
    from repro.extensions.commit_adopt import CommitAdopt, CommitAdoptProcess
    from repro.extensions.kset import PartitionedKSetConsensus, PartitionedProcess
    from repro.extensions.naming_agreement import (
        NamingAgreement,
        NamingAgreementProcess,
    )
    from repro.extensions.unbounded_consensus import (
        LadderConsensusProcess,
        UnboundedConsensus,
    )
    from repro.extensions.variants import (
        LenientConsensus,
        LenientConsensusProcess,
        ThresholdMutex,
        ThresholdMutexProcess,
    )
    from repro.lowerbounds.candidates import (
        NaiveTestAndSetLock,
        NaiveTestAndSetProcess,
    )

    consensus_safety = conjoin(agreement_invariant, validity_invariant)

    return (
        ProblemSpec(
            key="figure-1-mutex",
            title="Figure 1 — anonymous mutual exclusion (odd m)",
            module="repro.core.mutex",
            automata=(AnonymousMutexProcess,),
            build=lambda p: AnonymousMutex(
                m=p["m"], cs_visits=p.get("cs_visits", 1)
            ),
            inputs=_mutex_pids,
            theorems=(
                "Theorem 3.1", "Theorem 3.2", "Theorem 3.3", "Theorem 3.4",
            ),
            invariant=mutual_exclusion_invariant,
            liveness=(
                LivenessProperty("deadlock-freedom", "Theorem 3.3"),
            ),
            footprints=(
                (
                    "AnonymousMutexProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        write_constants=(0,),
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "figure-1-mutex(m=3)",
                    params=(("m", 3),),
                    roles=("lint", "verify", "bench"),
                    race_check=True,
                    bench_label="mutex m=3 (n=2)",
                    bench_quick=True,
                ),
                ProblemInstance(
                    "figure-1-mutex(m=5)",
                    params=(("m", 5),),
                    roles=("verify", "bench"),
                    bench_label="mutex m=5 (n=2)",
                    bench_quick=True,
                ),
                ProblemInstance(
                    "figure-1-mutex(m=7)",
                    params=(("m", 7),),
                    roles=("verify", "bench"),
                    bench_label="mutex m=7 (n=2)",
                ),
                ProblemInstance(
                    "figure-1-mutex(m=9)",
                    params=(("m", 9),),
                    roles=("bench",),
                    bench_label="mutex m=9 (n=2)",
                ),
                ProblemInstance(
                    "figure-1-mutex(m=9,extended)",
                    params=(("m", 9),),
                    roles=("bench",),
                    bench_label="mutex m=9 (n=2, extended budget)",
                    bench_overrides=(("max_states", 1_000_000),),
                    notes="lets the seed engine complete and show its true cost",
                ),
            ),
        ),
        ProblemSpec(
            key="figure-2-consensus",
            title="Figure 2 — anonymous obstruction-free consensus",
            module="repro.core.consensus",
            automata=(AnonymousConsensusProcess,),
            build=lambda p: AnonymousConsensus(n=p["n"]),
            inputs=_consensus_inputs,
            theorems=("Theorem 4.1", "Theorem 4.2"),
            invariant=consensus_safety,
            liveness=(
                LivenessProperty("obstruction-freedom", "Theorem 4.1"),
            ),
            footprints=(
                (
                    "AnonymousConsensusProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        writes_input=True,
                        writes_memory=True,
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "figure-2-consensus(n=2)",
                    params=(("n", 2),),
                    roles=("lint", "verify", "bench"),
                    race_check=True,
                    bench_label="consensus n=2 (distinct inputs)",
                    bench_quick=True,
                ),
                ProblemInstance(
                    "figure-2-consensus(n=3,equal)",
                    params=(("equal", True), ("n", 3)),
                    roles=("bench",),
                    bench_label="consensus n=3 (equal inputs)",
                ),
                ProblemInstance(
                    "figure-2-consensus(n=3,equal,extended)",
                    params=(("equal", True), ("n", 3)),
                    roles=("bench",),
                    bench_label="consensus n=3 (equal inputs, extended budget)",
                    bench_overrides=(("max_states", 1_500_000),),
                    notes="the seed engine still cannot complete here",
                ),
            ),
        ),
        ProblemSpec(
            key="figure-3-renaming",
            title="Figure 3 — anonymous perfect renaming",
            module="repro.core.renaming",
            automata=(AnonymousRenamingProcess,),
            build=lambda p: AnonymousRenaming(n=p["n"]),
            inputs=_mutex_pids,
            theorems=("Theorem 5.1", "Theorem 5.2", "Theorem 5.3"),
            invariant=unique_names_invariant,
            liveness=(
                LivenessProperty("obstruction-freedom", "Theorem 5.1"),
            ),
            footprints=(
                (
                    "AnonymousRenamingProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        writes_memory=True,
                        writes_counter=True,
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "figure-3-renaming(n=2)",
                    params=(("n", 2),),
                    roles=("lint", "verify", "bench"),
                    race_check=True,
                    bench_label="renaming n=2",
                    bench_quick=True,
                ),
            ),
        ),
        ProblemSpec(
            key="election",
            title="Leader election from consensus on identifiers",
            module="repro.core.election",
            automata=(),  # reuses AnonymousConsensusProcess (Figure 2)
            build=lambda p: AnonymousElection(n=p["n"]),
            inputs=_mutex_pids,
            theorems=("Theorem 4.2",),
            # Agreement only: election decides *identifiers*, which are
            # not inputs, so consensus validity does not apply.
            invariant=agreement_invariant,
            liveness=(
                LivenessProperty("obstruction-freedom", "Theorem 4.2"),
            ),
            instances=(
                ProblemInstance(
                    "election(n=2)",
                    params=(("n", 2),),
                    roles=("lint", "verify"),
                ),
            ),
        ),
        ProblemSpec(
            key="naming-agreement",
            title="Naming agreement (repairable name claims)",
            module="repro.extensions.naming_agreement",
            automata=(NamingAgreementProcess,),
            build=lambda p: NamingAgreement(n=p["n"]),
            inputs=_mutex_pids,
            footprints=(
                (
                    "NamingAgreementProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        writes_memory=True,
                        writes_counter=True,
                        writes_config=True,
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "naming-agreement(n=2)",
                    params=(("n", 2),),
                    max_states=400_000,
                    notes="repair_write needs deep interleavings",
                ),
            ),
        ),
        ProblemSpec(
            key="commit-adopt",
            title="Commit-adopt over a binary domain",
            module="repro.extensions.commit_adopt",
            automata=(CommitAdoptProcess,),
            build=lambda p: CommitAdopt(domain=(1, 2)),
            inputs=_binary_inputs,
            footprints=(
                (
                    "CommitAdoptProcess",
                    AutomatonFootprint(
                        write_constants=(1,),
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance("commit-adopt", naming_seed=None),
            ),
        ),
        ProblemSpec(
            key="ladder-consensus",
            title="Unbounded ladder consensus",
            module="repro.extensions.unbounded_consensus",
            automata=(LadderConsensusProcess,),
            build=lambda p: UnboundedConsensus(
                domain=(1, 2), max_rounds=p.get("max_rounds", 8)
            ),
            inputs=_binary_inputs,
            footprints=(
                (
                    "LadderConsensusProcess",
                    AutomatonFootprint(forwards_values=True, no_ops=True),
                ),
            ),
            instances=(
                ProblemInstance(
                    "ladder-consensus",
                    params=(("max_rounds", 8),),
                    naming_seed=None,
                    notes="state space grows with rounds; truncation expected",
                ),
            ),
        ),
        ProblemSpec(
            key="threshold-mutex",
            title="Threshold variant of the Figure 1 mutex",
            module="repro.extensions.variants",
            automata=(ThresholdMutexProcess,),
            build=lambda p: ThresholdMutex(
                m=p["m"], threshold=p["threshold"], cs_visits=1
            ),
            inputs=_mutex_pids,
            invariant=mutual_exclusion_invariant,
            footprints=(
                (
                    "ThresholdMutexProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        write_constants=(0,),
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "threshold-mutex(m=3,t=2)",
                    params=(("m", 3), ("threshold", 2)),
                ),
            ),
        ),
        ProblemSpec(
            key="lenient-consensus",
            title="Lenient (grace-round) consensus variant",
            module="repro.extensions.variants",
            automata=(LenientConsensusProcess,),
            build=lambda p: LenientConsensus(n=p["n"]),
            inputs=_consensus_inputs,
            footprints=(
                (
                    "LenientConsensusProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        writes_input=True,
                        writes_memory=True,
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "lenient-consensus(n=2)", params=(("n", 2),)
                ),
            ),
        ),
        ProblemSpec(
            key="partitioned-k-set",
            title="Partitioned (n,k)-set consensus",
            module="repro.extensions.kset",
            automata=(PartitionedProcess,),
            build=lambda p: PartitionedKSetConsensus(n=p["n"], k=p["k"]),
            inputs=_consensus_inputs,
            footprints=(
                (
                    "PartitionedProcess",
                    AutomatonFootprint(
                        symbolic_indexing=True, forwards_values=True
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "partitioned-k-set(n=2,k=2)",
                    params=(("k", 2), ("n", 2)),
                    naming_seed=None,
                ),
            ),
        ),
        ProblemSpec(
            key="naive-lock",
            title="Naive test-and-set lock (lower-bound candidate)",
            module="repro.lowerbounds.candidates",
            automata=(NaiveTestAndSetProcess,),
            build=lambda p: NaiveTestAndSetLock(cs_visits=1),
            inputs=_mutex_pids,
            footprints=(
                (
                    "NaiveTestAndSetProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        write_constants=(0,),
                        index_constants=(0,),
                    ),
                ),
            ),
            instances=(
                ProblemInstance("naive-lock"),
            ),
        ),
        ProblemSpec(
            key="peterson-mutex",
            title="Peterson tournament mutex (named baseline)",
            module="repro.baselines.named_mutex",
            automata=(TournamentMutexProcess,),
            build=lambda p: PetersonMutex(cs_visits=1),
            inputs=_mutex_pids,
            invariant=mutual_exclusion_invariant,
            footprints=(
                (
                    "TournamentMutexProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        writes_config=True,
                        write_constants=(0,),
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "peterson-mutex", race_check=True, naming_seed=None
                ),
            ),
        ),
        ProblemSpec(
            key="election-chain-renaming",
            title="Election-chain renaming (named baseline)",
            module="repro.baselines.named_renaming",
            automata=(ElectionChainProcess,),
            build=lambda p: ElectionChainRenaming(n=p["n"]),
            inputs=_mutex_pids,
            footprints=(
                (
                    "ElectionChainProcess",
                    AutomatonFootprint(
                        symbolic_indexing=True, forwards_values=True
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "election-chain-renaming(n=2)",
                    params=(("n", 2),),
                    naming_seed=None,
                ),
            ),
        ),
        ProblemSpec(
            key="splitter-renaming",
            title="Splitter-based renaming (named baseline)",
            module="repro.baselines.splitter_renaming",
            automata=(SplitterRenamingProcess,),
            build=lambda p: SplitterRenaming(n=p["n"]),
            inputs=_mutex_pids,
            footprints=(
                (
                    "SplitterRenamingProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        write_constants=(1,),
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "splitter-renaming(n=2)",
                    params=(("n", 2),),
                    naming_seed=None,
                ),
            ),
        ),
        ProblemSpec(
            key="named-consensus",
            title="Named-model consensus (baseline)",
            module="repro.baselines.named_consensus",
            automata=(NamedConsensusProcess,),
            build=lambda p: NamedConsensus(n=p["n"]),
            inputs=_consensus_inputs,
            footprints=(
                (
                    "NamedConsensusProcess",
                    AutomatonFootprint(
                        writes_pid=True,
                        writes_input=True,
                        writes_memory=True,
                        symbolic_indexing=True,
                    ),
                ),
            ),
            instances=(
                ProblemInstance(
                    "named-consensus(n=2)",
                    params=(("n", 2),),
                    naming_seed=None,
                ),
            ),
        ),
        # -- seeded mutants: forbidden regimes kept for counterexamples --
        ProblemSpec(
            key="figure-1-mutex-even-m",
            title="Figure 1 mutex with even m — the Theorem 3.4 regime",
            module="repro.core.mutex",
            automata=(),  # same AnonymousMutexProcess as figure-1-mutex
            build=lambda p: AnonymousMutex(
                m=p["m"], cs_visits=1, unsafe_allow_any_m=True
            ),
            inputs=_mutex_pids,
            theorems=("Theorem 3.1", "Theorem 3.4"),
            invariant=mutual_exclusion_invariant,
            naming=_ring_naming,
            liveness=(
                LivenessProperty(
                    "deadlock-freedom", "Theorem 3.4", expect_violation=True
                ),
            ),
            mutant=True,
            instances=(
                ProblemInstance(
                    "figure-1-mutex-even-m(m=4)",
                    params=(("m", 4),),
                    roles=("verify",),
                    notes="equispaced ring naming; the lockstep livelock "
                    "of Theorem 3.4 must appear as a fair non-progress "
                    "cycle",
                ),
            ),
        ),
    )


_CACHE: Dict[bool, Tuple[ProblemSpec, ...]] = {}


def problem_specs(include_mutants: bool = False) -> Tuple[ProblemSpec, ...]:
    """All registered problems, in declaration (= lint output) order."""
    if include_mutants not in _CACHE:
        specs = _specs()
        keys = [spec.key for spec in specs]
        assert len(set(keys)) == len(keys), f"duplicate problem keys: {keys}"
        _CACHE[True] = specs
        _CACHE[False] = tuple(s for s in specs if not s.mutant)
    return _CACHE[include_mutants]


def get_problem(key: str) -> ProblemSpec:
    """Look a problem up by key (mutants included — they are addressable,
    just never part of a 'shipped' enumeration)."""
    for spec in problem_specs(include_mutants=True):
        if spec.key == key:
            return spec
    raise KeyError(
        f"unknown problem {key!r}; known: "
        f"{[s.key for s in problem_specs(include_mutants=True)]}"
    )


def instances_with_role(
    role: str, include_mutants: bool = False
) -> Iterator[Tuple[ProblemSpec, ProblemInstance]]:
    """Every ``(spec, instance)`` pair the given consumer runs."""
    for spec in problem_specs(include_mutants=include_mutants):
        for inst in spec.instances_with_role(role):
            yield spec, inst


def shipped_modules() -> Tuple[str, ...]:
    """The modules shipping algorithm code, in first-appearance order."""
    seen: Dict[str, None] = {}
    for spec in problem_specs():
        seen.setdefault(spec.module, None)
    return tuple(seen)


def shipped_automaton_classes() -> List[Type[ProcessAutomaton]]:
    """Every automaton class the registry declares, sorted like the old
    subclass walk (module, qualname) so lint output order is stable.

    The registry declaration *is* the source of truth; the drift test in
    ``tests/problems/test_registry.py`` walks the
    :class:`~repro.runtime.automaton.ProcessAutomaton` subclass tree
    over :func:`shipped_modules` and fails if a shipped module ever
    defines an automaton class the registry does not declare (or vice
    versa), so the count in ``repro lint``'s summary line can no longer
    silently drift.
    """
    for module in shipped_modules():
        importlib.import_module(module)
    classes = {cls for spec in problem_specs() for cls in spec.automata}
    return sorted(classes, key=lambda cls: (cls.__module__, cls.__qualname__))
