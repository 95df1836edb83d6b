"""Shrinker and oracle unit tests, plus minimality properties of the
witnesses the engine publishes."""

import pytest

from repro.fuzz.engine import run_fuzz
from repro.fuzz.shrink import (
    _ddmin,
    _minimal_repeating_unit,
    cycle_is_df_violation,
    cycle_is_of_violation,
    replay_values,
    safety_message,
    shrink_lasso,
)
from repro.problems import get_problem
from repro.request import RunRequest
from repro.runtime.kernel import StepInstance
from repro.verify.liveness import CsLabels


@pytest.fixture(scope="module")
def mutant():
    spec = get_problem("figure-1-mutex-even-m")
    record = spec.instance("figure-1-mutex-even-m(m=4)")
    system = spec.system(record)
    instance = StepInstance.from_system(system)
    initial = system.scheduler.capture_state()
    return spec, record, instance, initial


class TestDdmin:
    def test_minimises_to_the_required_core(self):
        # predicate: keeps both sentinels, in order
        def predicate(seq):
            return 7 in seq and 9 in seq

        result = _ddmin(tuple(range(20)) + (7, 1, 2, 9), predicate)
        assert sorted(result) == [7, 9]

    def test_already_minimal_is_untouched(self):
        assert _ddmin((5,), lambda seq: 5 in seq) == (5,)

    def test_predicate_never_sees_the_unchanged_sequence(self):
        seen = []

        def predicate(seq):
            seen.append(seq)
            return 1 in seq

        original = (1, 2, 3, 4)
        _ddmin(original, predicate)
        assert original not in seen


class TestMinimalRepeatingUnit:
    def test_collapses_powers(self):
        cycle = (101, 103) * 8
        assert _minimal_repeating_unit(cycle, lambda u: True) == (101, 103)

    def test_respects_validity(self):
        cycle = (101, 103) * 4
        # units shorter than 4 declared invalid: the best valid power wins
        unit = _minimal_repeating_unit(cycle, lambda u: len(u) >= 4)
        assert unit == (101, 103, 101, 103)

    def test_aperiodic_cycle_survives(self):
        cycle = (101, 103, 101)
        assert _minimal_repeating_unit(cycle, lambda u: True) == cycle


class TestOracles:
    def test_cs_predicates_supported_on_mutex_automata(self, mutant):
        _, _, instance, _ = mutant
        assert CsLabels(instance).supported

    def test_replay_values_walks_a_feasible_schedule(self, mutant):
        _, _, instance, initial = mutant
        pids = instance.pid_order
        state = replay_values(instance, initial, [pids[0], pids[1]])
        assert state is not None and state != initial

    def test_safety_message_none_on_clean_state(self, mutant):
        spec, _, instance, initial = mutant
        assert safety_message(instance, initial, (), spec.invariant) is None

    def test_df_oracle_rejects_unfair_and_empty_cycles(self, mutant):
        _, _, instance, initial = mutant
        labels = CsLabels(instance)
        assert not cycle_is_df_violation(instance, initial, (), labels)
        # a one-pid cycle cannot be fair with two live processes
        pid = instance.pid_order[0]
        assert not cycle_is_df_violation(
            instance, initial, (pid, pid), labels
        )

    def test_of_oracle_requires_a_single_pid(self, mutant):
        _, _, instance, initial = mutant
        pids = instance.pid_order
        assert not cycle_is_of_violation(instance, initial, tuple(pids[:2]))


class TestShrinkLasso:
    @pytest.fixture(scope="class")
    def raw_violation(self):
        # shrink=False: the raw witness as the engine first sees it
        report = run_fuzz(
            RunRequest(
                problem="figure-1-mutex",
                instance="figure-1-mutex-even-m",
                seed=7,
            ),
            episodes=1,
            shrink=False,
            validate=False,
        )
        assert report.found
        return report.violations[0]

    def test_shrunk_lasso_still_violates(self, mutant, raw_violation):
        _, _, instance, initial = mutant
        labels = CsLabels(instance)
        prefix, cycle = shrink_lasso(
            instance, initial,
            raw_violation.prefix, raw_violation.cycle,
            raw_violation.kind, labels,
        )
        assert len(cycle) <= len(raw_violation.cycle)
        assert len(prefix) <= len(raw_violation.prefix)
        entry = replay_values(instance, initial, prefix)
        assert entry is not None
        assert cycle_is_df_violation(instance, entry, cycle, labels)

    def test_shrinking_is_idempotent(self, mutant, raw_violation):
        _, _, instance, initial = mutant
        labels = CsLabels(instance)
        once = shrink_lasso(
            instance, initial,
            raw_violation.prefix, raw_violation.cycle,
            raw_violation.kind, labels,
        )
        twice = shrink_lasso(
            instance, initial, once[0], once[1],
            raw_violation.kind, labels,
        )
        assert twice == once
