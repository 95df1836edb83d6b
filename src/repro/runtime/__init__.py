"""Execution substrate: automata, scheduler, adversaries, exploration.

The runtime realises the paper's computation model (§2, §6.1):

* :mod:`repro.runtime.ops` — the atomic step vocabulary;
* :mod:`repro.runtime.automaton` — processes as explicit-state I/O
  automata with location counters;
* :mod:`repro.runtime.events` — events and traces (the paper's *runs*);
* :mod:`repro.runtime.scheduler` — one atomic operation per event, chosen
  by an adversary; supports crashes and state capture/restore;
* :mod:`repro.runtime.adversary` — schedule strategies, from fair
  round-robin to the lockstep and fixed-schedule adversaries the
  lower-bound proofs are built from;
* :mod:`repro.runtime.system` — one-call assembly of a runnable instance;
* :mod:`repro.runtime.exploration` — bounded exhaustive model checking;
* :mod:`repro.runtime.invariants` — the safety invariants it checks,
  each declared once;
* :mod:`repro.runtime.replay` — trace serialisation and strict replay;
* :mod:`repro.runtime.threads` — real-thread backend with lock-guarded
  registers.
"""

from repro.runtime.adversary import (
    Adversary,
    AlternatingBurstAdversary,
    CrashAdversary,
    FixedScheduleAdversary,
    LockstepAdversary,
    RandomAdversary,
    RoundRobinAdversary,
    SoloAdversary,
    StagedObstructionAdversary,
    standard_adversaries,
)
from repro.runtime.automaton import (
    Algorithm,
    ProcessAutomaton,
    pending_write_target,
)
from repro.runtime.events import (
    CriticalSectionInterval,
    Event,
    Trace,
    subsequence_equal,
)
from repro.runtime.exploration import ExplorationResult, explore
from repro.runtime.invariants import (
    StateInvariant,
    agreement_invariant,
    conjoin,
    mutual_exclusion_invariant,
    unique_names_invariant,
    validity_invariant,
)
from repro.runtime.ops import (
    CritOp,
    EnterCritOp,
    ExitCritOp,
    NoOp,
    Operation,
    ReadOp,
    WriteOp,
    is_read,
    is_write,
)
from repro.runtime.replay import (
    load_trace,
    replay,
    save_trace,
    schedule_of,
    trace_from_dict,
    trace_to_dict,
)
from repro.runtime.scheduler import ProcessRuntime, Scheduler
from repro.runtime.system import System, fresh_system
from repro.runtime.threads import (
    ThreadRunResult,
    ThreadRunner,
    run_threaded,
    run_threaded_with_backoff,
)

__all__ = [
    "Adversary",
    "AlternatingBurstAdversary",
    "CrashAdversary",
    "FixedScheduleAdversary",
    "LockstepAdversary",
    "RandomAdversary",
    "RoundRobinAdversary",
    "SoloAdversary",
    "StagedObstructionAdversary",
    "standard_adversaries",
    "Algorithm",
    "ProcessAutomaton",
    "pending_write_target",
    "CriticalSectionInterval",
    "Event",
    "Trace",
    "subsequence_equal",
    "ExplorationResult",
    "explore",
    "StateInvariant",
    "conjoin",
    "mutual_exclusion_invariant",
    "agreement_invariant",
    "validity_invariant",
    "unique_names_invariant",
    "ReadOp",
    "WriteOp",
    "CritOp",
    "EnterCritOp",
    "ExitCritOp",
    "NoOp",
    "Operation",
    "is_read",
    "is_write",
    "ProcessRuntime",
    "Scheduler",
    "load_trace",
    "replay",
    "save_trace",
    "schedule_of",
    "trace_from_dict",
    "trace_to_dict",
    "System",
    "fresh_system",
    "ThreadRunner",
    "ThreadRunResult",
    "run_threaded",
    "run_threaded_with_backoff",
]
