#!/usr/bin/env python3
"""CI gate for the default walker's throughput over its oracle.

Runs the mutex m=7 bench instance (the headline row of
``BENCH_explore.json``) on the default engine (the packed walker behind
``explore``) and on the ``SerialBackend`` interpreter oracle — same
trivial-dedup walk, same budgets, same process — asserts the verdicts
and the state and event counts are identical, and exits non-zero when
the measured ``speedup_vs_oracle`` falls below the threshold.

The committed benchmark records the full measurement; CI holds the
gate at 5× (``--threshold 5``) so shared-runner noise cannot flake an
honest build.  On a single-CPU host the correctness asserts still run
but the throughput gate is skipped (exit 0), not failed: a degraded
host measures contention, not the walker.

Run with:   PYTHONPATH=src python benchmarks/check_compiled_speedup.py
"""

import argparse
import os
import sys

from repro.core.mutex import AnonymousMutex
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.runtime.system import System

PIDS = (101, 103)

#: The exploration benchmark's budgets (BENCH_BUDGETS in
#: run_experiments.py) — m=7 completes exhaustively well inside them.
BUDGETS = {"max_states": 500_000, "max_depth": 1_000_000}


def run(m, backend):
    system = System(AnonymousMutex(m=m, cs_visits=1), PIDS, record_trace=False)
    return explore(
        system,
        mutual_exclusion_invariant,
        canonicalizer=TrivialCanonicalizer(system.scheduler),
        backend=backend,
        **BUDGETS,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--m", type=int, default=7, metavar="M",
        help="mutex register count (default: 7, the headline instance)",
    )
    parser.add_argument(
        "--threshold", type=float, default=5.0, metavar="X",
        help="minimum acceptable walker/oracle throughput ratio "
             "(default: 5)",
    )
    args = parser.parse_args(argv)

    oracle = run(args.m, backend=SerialBackend())
    walker = run(args.m, backend=None)
    assert (walker.ok, walker.states_explored, walker.events_executed) == (
        oracle.ok, oracle.states_explored, oracle.events_executed
    ), (
        f"walker ({walker.states_explored} states, {walker.events_executed} "
        f"events) disagrees with the oracle ({oracle.states_explored}, "
        f"{oracle.events_executed})"
    )

    if not oracle.states_per_second or not walker.states_per_second:
        print("walk finished below timer resolution; cannot gate throughput")
        return 1
    speedup = walker.states_per_second / oracle.states_per_second
    print(
        f"mutex m={args.m}: {oracle.states_explored} states; "
        f"oracle {oracle.states_per_second:,.0f}/s, "
        f"walker {walker.states_per_second:,.0f}/s "
        f"-> speedup x{speedup:.2f} (threshold x{args.threshold})"
    )
    if (os.cpu_count() or 1) == 1:
        print(
            "degraded host (1 cpu): correctness asserts passed; "
            "speedup gate skipped, not failed"
        )
        return 0
    if speedup < args.threshold:
        print(
            f"FAIL: walker speedup x{speedup:.2f} over the oracle is below the "
            f"x{args.threshold} gate"
        )
        return 1
    print("walker speedup gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
