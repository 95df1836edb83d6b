"""Differential bit-identity of the default walker on partial walks.

``test_compiled.py`` pins the packed walker against its
:class:`~repro.runtime.backends.SerialBackend` oracle on complete walks.
Its tables fill lazily, so a walk that stops early leaves them half
built — and the state at which it stops depends on every counter and
budget check being taken at the same point as in the oracle.  Here
every shipped verify-role instance and every non-hooked lint mutant is
walked three ways by both engines, and everything observable must
match exactly — verdict, completeness, truncation cause, every counter,
violation text and schedule, group size, and (under trivial dedup) the
retained ``StateGraph.to_bytes()`` of the partial graph:

* ``symmetry`` — the symmetry-reduced quotient under the instance's
  budget (the digest-keyed walk, no graph);
* ``max_states`` — trivial dedup cut by a small state budget;
* ``max_depth`` — trivial dedup cut by a shallow depth bound.

A walk that raises must raise the same exception type and message.
"""

import pytest

from repro.problems import instances_with_role
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer, build_canonicalizer
from repro.runtime.exploration import explore
from repro.runtime.system import System

from tests.conftest import pids
from tests.lint.mutants import ALL_MUTANTS, HOOKED_MUTANTS, MutantAlgorithm
from tests.runtime.test_compiled import fingerprint
from tests.runtime.test_exploration_differential import null_invariant

MODES = ("symmetry", "max_states", "max_depth")

VERIFY_ROWS = list(instances_with_role("verify", include_mutants=True))

NON_HOOKED_MUTANTS = [
    cls for cls, _pass in ALL_MUTANTS if cls not in HOOKED_MUTANTS
]


def budgets_for(mode, max_states, max_depth):
    """The ``(max_states, max_depth)`` of ``mode`` on a row whose own
    budgets are ``max_states``/``max_depth``."""
    if mode == "max_states":
        return 300, max_depth
    if mode == "max_depth":
        return max_states, 15
    return max_states, max_depth


def walk(system, invariant, mode, max_states, max_depth, backend):
    """One walk of ``system`` in ``mode``; an exception is the outcome."""
    symmetric = mode == "symmetry"
    canonicalizer = (
        build_canonicalizer(system)
        if symmetric
        else TrivialCanonicalizer(system.scheduler)
    )
    states, depth = budgets_for(mode, max_states, max_depth)
    try:
        result = explore(
            system,
            invariant,
            canonicalizer=canonicalizer,
            backend=backend,
            retain_graph=not symmetric,
            max_states=states,
            max_depth=depth,
        )
    except Exception as error:  # noqa: BLE001 — compared by the caller
        return ("raised", type(error).__name__, str(error))
    graph = None if result.graph is None else result.graph.to_bytes()
    return fingerprint(result), result.group_size, graph


class TestVerifyInstances:
    @pytest.mark.parametrize(
        "spec, inst", VERIFY_ROWS, ids=[inst.label for _, inst in VERIFY_ROWS]
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_bit_identical_to_serial(self, spec, inst, mode):
        def run(backend):
            return walk(
                spec.system(inst),
                spec.invariant,
                mode,
                inst.verify_max_states,
                1_000_000,
                backend,
            )

        oracle = run(SerialBackend())
        walker = run(None)
        assert walker == oracle, f"{inst.label} ({mode}) diverged"
        if mode != "symmetry":
            # The budget must actually cut these walks, or the row
            # would only repeat test_compiled's complete-walk check.
            assert oracle[0][1] is False, f"{inst.label}: {mode} did not cut"
            assert oracle[0][2] in (mode, "violation")


class TestNonHookedMutants:
    """Every lint mutant, including the two whose exploration raises."""

    @pytest.mark.parametrize(
        "mutant_cls",
        NON_HOOKED_MUTANTS,
        ids=[cls.__name__ for cls in NON_HOOKED_MUTANTS],
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_serial(self, mutant_cls, mode):
        def run(backend):
            system = System(
                MutantAlgorithm(mutant_cls), pids(2), record_trace=False
            )
            return walk(system, null_invariant, mode, 2_000, 200, backend)

        assert run(None) == run(SerialBackend())
