"""Engine acceptance tests: the mutant is found, clean instances stay
clean, every reported witness replays on a live system, and the run is
a pure function of its seed."""

import pytest

from repro.errors import ConfigurationError, FuzzError
from repro.fuzz.engine import run_fuzz
from repro.request import RunRequest
from repro.runtime.replay import replay_schedule

EPISODES = 16  # the shared budget: enough for every family to fire 4x


def fuzz(instance, seed=7, episodes=EPISODES, **kwargs):
    return run_fuzz(
        RunRequest(problem="figure-1-mutex", instance=instance, seed=seed),
        episodes=episodes,
        **kwargs,
    )


@pytest.fixture(scope="module")
def mutant_report():
    return fuzz("figure-1-mutex-even-m")


class TestAcceptance:
    def test_mutant_deterministically_found(self, mutant_report):
        assert mutant_report.found
        assert mutant_report.instance == "figure-1-mutex-even-m(m=4)"
        kinds = {v.kind for v in mutant_report.violations}
        assert kinds == {"deadlock-freedom"}
        # the Theorem 3.4 lockstep template fires in episode 0
        first = mutant_report.violations[0]
        assert first.episode == 0 and first.family == "lockstep"
        assert "Theorem 3.4" in first.message

    def test_clean_instances_stay_clean_under_the_same_budget(self):
        # Sound oracles: a correct instance can never produce a hit, so
        # these assert soundness, not luck.
        for label in ("figure-1-mutex(m=3)", "figure-1-mutex(m=5)"):
            report = fuzz(label)
            assert not report.found, label
            assert report.episodes_run == EPISODES

    def test_seed_determinism(self, mutant_report):
        again = fuzz("figure-1-mutex-even-m")
        assert again.to_dict() == mutant_report.to_dict()

    def test_different_seed_different_schedules(self, mutant_report):
        other = fuzz("figure-1-mutex-even-m", seed=8)
        assert other.found  # the mutant falls to any seed...
        assert [v.schedule for v in other.violations] != [
            v.schedule for v in mutant_report.violations
        ]  # ...but via seed-specific schedules


class TestWitnessReplay:
    def test_every_shrunk_lasso_replays_via_replay_schedule(
        self, mutant_report
    ):
        # Independent of the engine's own certification: rebuild the
        # live system and drive the published witness through the
        # replay API a reader of the report would use.
        from repro.problems import get_problem

        spec = get_problem("figure-1-mutex-even-m")
        instance = spec.instance("figure-1-mutex-even-m(m=4)")
        for violation in mutant_report.violations:
            prefix = list(violation.shrunk_prefix)
            cycle = list(violation.shrunk_cycle)
            entry_system = spec.system(instance, record_trace=True)
            replay_schedule(entry_system, prefix)
            entry = entry_system.scheduler.capture_state()

            closed_system = spec.system(instance, record_trace=True)
            trace = replay_schedule(closed_system, prefix + cycle)
            assert len(trace.events) == len(prefix) + len(cycle)
            assert closed_system.scheduler.capture_state() == entry

    def test_shrunk_never_longer_than_raw(self, mutant_report):
        for violation in mutant_report.violations:
            assert len(violation.shrunk_cycle) <= len(violation.cycle)
            assert len(violation.shrunk_prefix) <= len(violation.prefix)


class TestBudgets:
    def test_max_violations_stops_the_run(self):
        report = fuzz("figure-1-mutex-even-m", max_violations=1)
        assert len(report.violations) == 1
        assert report.episodes_run < EPISODES

    def test_max_states_truncates_with_reason(self):
        report = run_fuzz(
            RunRequest(
                problem="figure-1-mutex",
                instance="figure-1-mutex(m=3)",
                seed=7,
                max_states=40,
            ),
            episodes=EPISODES,
        )
        assert report.truncated_by == "max_states"
        assert report.episodes_run < EPISODES

    def test_zero_episodes_is_a_clean_noop(self):
        report = fuzz("figure-1-mutex(m=3)", episodes=0)
        assert report.episodes_run == 0 and report.steps == 0
        assert not report.found

    def test_negative_episodes_rejected(self):
        with pytest.raises(FuzzError, match="episodes must be >= 0"):
            fuzz("figure-1-mutex(m=3)", episodes=-1)


class TestConfiguration:
    def test_backend_instance_rejected(self):
        from repro.runtime.backends import SerialBackend

        with pytest.raises(ConfigurationError, match="takes no backend"):
            run_fuzz(
                RunRequest(
                    problem="figure-1-mutex",
                    instance="figure-1-mutex(m=3)",
                    backend=SerialBackend(),
                )
            )

    def test_unknown_family_rejected_before_any_episode(self):
        with pytest.raises(FuzzError, match="unknown strategy family"):
            fuzz("figure-1-mutex(m=3)", families=["random", "zigzag"])

    def test_family_subset_restricts_the_rotation(self):
        report = fuzz("figure-1-mutex-even-m", families=["random"], episodes=4)
        assert report.families == ("random",)
        assert all(v.family == "random" for v in report.violations)

    def test_by_family_includes_zero_rows(self):
        report = fuzz("figure-1-mutex(m=3)", episodes=4)
        assert report.by_family() == {
            "lockstep": 0, "random": 0, "greedy": 0, "covering": 0,
        }


class TestEpisodeSharding:
    def test_episode_base_reproduces_the_one_shot_suffix(self, mutant_report):
        # A farm cell covering episodes [8, 16) must reproduce exactly
        # the violations the one-shot run attributed to those episodes.
        shard = fuzz("figure-1-mutex-even-m", episodes=8, episode_base=8)
        expected = [
            v.to_dict()
            for v in mutant_report.violations
            if 8 <= v.episode < 16
        ]
        assert [v.to_dict() for v in shard.violations] == expected
