"""RunRequest: validation, registry resolution, the one meaning of
``backend``, and the removed shims.

The pre-request execution keywords of ``verify_instance`` and
``sweep_problem`` (and their ``DeprecationWarning`` text) are gone; the
tests at the bottom pin that they stay gone.
"""

import inspect
import warnings

import pytest

import repro.request
from repro.analysis.experiments import sweep_problem
from repro.errors import ConfigurationError
from repro.problems import get_problem
from repro.request import RunRequest, resolve_target
from repro.runtime.backends import SerialBackend
from repro.verify.runner import verify_instance


# -- construction-time validation --------------------------------------

class TestRunRequestValidation:
    def test_defaults_pin_nothing(self):
        request = RunRequest()
        assert request.backend is None
        assert request.params_dict() is None

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(backend="cluster")
        assert str(err.value) == (
            "backend must be an ExplorationBackend instance such as "
            "SerialBackend(), or None for the packed walker; got 'cluster'"
        )

    @pytest.mark.parametrize("name", ["serial", "process", "packed"])
    def test_backend_names_fail_before_any_work(self, name):
        # A name fails where the request is built, before any work.
        with pytest.raises(ConfigurationError, match="ExplorationBackend"):
            RunRequest(backend=name)

    def test_backend_instance_is_accepted(self):
        backend = SerialBackend()
        assert RunRequest(backend=backend).backend is backend

    def test_parallel_backend_is_gone(self):
        with pytest.raises(ConfigurationError):
            RunRequest(backend="parallel")

    def test_kernel_field_is_gone(self):
        with pytest.raises(TypeError):
            RunRequest(kernel="compiled")

    @pytest.mark.parametrize("field", ["workers", "max_steps", "max_states"])
    def test_positive_int_budgets(self, field):
        with pytest.raises(ConfigurationError):
            RunRequest(**{field: 0})
        with pytest.raises(ConfigurationError):
            RunRequest(**{field: "many"})

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigurationError):
            RunRequest(seed="7")

    def test_params_mapping_normalised_hashable(self):
        request = RunRequest(params={"n": 3, "m": 5})
        assert request.params == (("m", 5), ("n", 3))
        assert hash(request) == hash(RunRequest(params={"m": 5, "n": 3}))
        assert request.params_dict() == {"m": 5, "n": 3}

    def test_replace_revalidates(self):
        request = RunRequest(workers=2)
        with pytest.raises(ConfigurationError):
            request.replace(backend="parallel")


# -- keyword merging ---------------------------------------------------

class TestMerged:
    def test_request_field_wins_over_default(self):
        request = RunRequest(max_states=100)
        assert request.merged("max_states", None) == 100

    def test_explicit_keyword_passes_through_when_unset(self):
        assert RunRequest().merged("max_states", 42) == 42

    def test_matching_explicit_is_fine(self):
        assert RunRequest(workers=4).merged("workers", 4) == 4

    def test_conflicting_explicit_raises(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(workers=4).merged("workers", 2)
        assert str(err.value) == (
            "request= already carries workers=4; drop the conflicting "
            "workers=2 keyword"
        )

    def test_entry_point_default_never_conflicts(self):
        # 500_000 is explore()'s own default — not a user choice.
        request = RunRequest(max_states=100)
        assert request.merged("max_states", 500_000, default=500_000) == 100


# -- registry resolution -----------------------------------------------

class TestResolveTarget:
    def test_requires_problem(self):
        with pytest.raises(ConfigurationError) as err:
            resolve_target(None)
        assert "a problem key is required" in str(err.value)

    def test_instance_label(self):
        spec, inst = resolve_target("figure-1-mutex", "figure-1-mutex(m=3)")
        assert spec.key == "figure-1-mutex"
        assert inst.label == "figure-1-mutex(m=3)"

    def test_instance_as_mutant_problem_key(self):
        spec, inst = resolve_target("figure-1-mutex", "figure-1-mutex-even-m")
        assert spec.key == "figure-1-mutex-even-m"
        assert inst.label == "figure-1-mutex-even-m(m=4)"

    def test_unknown_instance_names_known_labels(self):
        with pytest.raises(ConfigurationError) as err:
            resolve_target("figure-1-mutex", "nope")
        assert "figure-1-mutex(m=3)" in str(err.value)

    def test_params_synthesise_adhoc_instance(self):
        spec, inst = resolve_target("figure-1-mutex", params={"m": 7})
        assert inst.label == "figure-1-mutex(m=7)"
        assert inst.params_dict() == {"m": 7}

    def test_default_first_instance(self):
        spec, inst = resolve_target("figure-1-mutex")
        assert inst.label == spec.instances[0].label


# -- the removed shims ------------------------------------------------

class TestRemovedShims:
    def test_message_helper_is_gone(self):
        assert not hasattr(repro.request, "deprecated_keywords_message")
        assert "deprecated_keywords_message" not in repro.request.__all__

    @pytest.mark.parametrize("keyword", [
        "backend", "telemetry", "max_states", "kernel",
    ])
    def test_verify_instance_keywords_are_gone(self, keyword):
        assert keyword not in inspect.signature(verify_instance).parameters
        spec = get_problem("figure-1-mutex")
        inst = spec.instance("figure-1-mutex(m=3)")
        with pytest.raises(TypeError):
            verify_instance(spec, inst, **{keyword: None})

    @pytest.mark.parametrize("keyword", ["max_steps", "backend", "telemetry"])
    def test_sweep_problem_keywords_are_gone(self, keyword):
        assert keyword not in inspect.signature(sweep_problem).parameters

    def test_scheduler_no_longer_re_exports_global_state(self):
        from repro.runtime import scheduler

        assert "GlobalState" not in scheduler.__all__

    def test_verify_instance_request_path_does_not_warn(self):
        spec = get_problem("figure-1-mutex")
        inst = spec.instance("figure-1-mutex(m=3)")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = verify_instance(
                spec, inst, request=RunRequest(max_states=50_000)
            )
        assert report.ok

    def test_verify_instance_resolves_from_request_alone(self):
        report = verify_instance(
            request=RunRequest(
                problem="figure-1-mutex", instance="figure-1-mutex(m=3)"
            )
        )
        assert report.ok

    def test_verify_instance_without_target_raises(self):
        with pytest.raises(ConfigurationError):
            verify_instance(request=RunRequest(max_states=10))

    def test_sweep_problem_request_path_does_not_warn(self):
        from repro.memory.naming import IdentityNaming
        from repro.runtime.adversary import RandomAdversary

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = sweep_problem(
                "figure-1-mutex",
                namings=[IdentityNaming()],
                adversaries=[RandomAdversary(1)],
                checkers_factory=lambda: [],
                request=RunRequest(max_steps=500),
            )
        assert result.runs == 1


# -- entry points that cannot honour a backend ---------------------------

ORACLE = RunRequest(
    problem="figure-1-mutex",
    instance="figure-1-mutex(m=3)",
    backend=SerialBackend(),
)


class TestBackendIsHonouredOrRefused:
    def test_verify_instance_runs_the_oracle(self):
        report = verify_instance(request=ORACLE)
        assert report.ok
        assert report.exploration.backend == "serial"

    def test_verify_instance_defaults_to_the_packed_walker(self):
        report = verify_instance(request=ORACLE.replace(backend=None))
        assert report.exploration.backend == "packed"

    def test_sweep_problem_refuses_a_backend(self):
        from repro.memory.naming import IdentityNaming
        from repro.runtime.adversary import RandomAdversary

        with pytest.raises(ConfigurationError, match="sweep_problem takes no backend"):
            sweep_problem(
                "figure-1-mutex",
                namings=[IdentityNaming()],
                adversaries=[RandomAdversary(1)],
                checkers_factory=lambda: [],
                request=ORACLE,
            )

    def test_run_fuzz_refuses_a_backend(self):
        from repro.fuzz.engine import run_fuzz

        with pytest.raises(ConfigurationError, match="run_fuzz takes no backend"):
            run_fuzz(ORACLE, episodes=1)

    def test_run_farm_refuses_a_backend_before_draining(self, tmp_path):
        from repro.farm import create_farm, farm_result, run_farm

        create_farm(tmp_path / "farm", {
            "problem": "figure-1-mutex",
            "instance": "figure-1-mutex(m=3)",
            "namings": [{"type": "identity"}],
            "adversaries": [{"type": "round-robin"}],
            "max_steps": 500,
        })
        with pytest.raises(ConfigurationError, match="run_farm takes no backend"):
            run_farm(tmp_path / "farm", request=ORACLE)
        assert farm_result(tmp_path / "farm").done == []
