"""The unified exploration/sweep API surface.

One public spelling — ``explore(..., reduction=...)`` and
``sweep(..., backend=...)``.  The PR-5 deprecation shims
(``explore_symmetry_reduced``, ``sweep(executor=...)``) are gone; these
tests pin the unified surface they migrated to.
"""

import warnings

import pytest

import repro
from repro.analysis.experiments import sweep
from repro.core.mutex import AnonymousMutex
from repro.errors import ConfigurationError
from repro.memory.naming import IdentityNaming
from repro.obs import load_manifests
from repro.runtime.adversary import RandomAdversary
from repro.runtime.backends import (
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.runtime.system import System
from repro.spec.mutex_spec import MutualExclusionChecker

from tests.conftest import pids


def mutex_system():
    return System(AnonymousMutex(m=3, cs_visits=1), pids(2), record_trace=False)


def mutex_sweep(**kwargs):
    return sweep(
        lambda: AnonymousMutex(m=3, cs_visits=1),
        pids(2),
        namings=[IdentityNaming()],
        adversaries=[RandomAdversary(seed) for seed in range(2)],
        checkers_factory=lambda: [MutualExclusionChecker()],
        max_steps=20_000,
        **kwargs,
    )


class TestUnifiedExplore:
    def test_reduction_defaults_to_none(self):
        result = explore(mutex_system(), mutual_exclusion_invariant)
        assert result.group_size == 1
        assert result.orbits_collapsed == 0

    def test_reduction_none_equals_default(self):
        default = explore(mutex_system(), mutual_exclusion_invariant)
        spelled = explore(
            mutex_system(), mutual_exclusion_invariant, reduction="none"
        )
        assert spelled.states_explored == default.states_explored

    def test_reduction_symmetry_engages_the_group(self):
        result = explore(
            mutex_system(), mutual_exclusion_invariant, reduction="symmetry"
        )
        assert result.group_size >= 2
        assert result.orbits_collapsed > 0

    def test_reduction_symmetry_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            explore(
                mutex_system(), mutual_exclusion_invariant, reduction="symmetry"
            )

    def test_reduction_and_canonicalizer_conflict(self):
        system = mutex_system()
        with pytest.raises(ConfigurationError, match="not both"):
            explore(
                system,
                mutual_exclusion_invariant,
                reduction="symmetry",
                canonicalizer=TrivialCanonicalizer(system.scheduler),
            )

    def test_unknown_reduction_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown reduction"):
            explore(
                mutex_system(), mutual_exclusion_invariant, reduction="magic"
            )

    def test_backend_takes_an_instance(self):
        from repro.runtime.backends import SerialBackend

        result = explore(
            mutex_system(), mutual_exclusion_invariant, backend=SerialBackend()
        )
        assert result.backend == "serial"

    def test_backend_names_are_gone(self):
        with pytest.raises(ConfigurationError, match="instance"):
            explore(
                mutex_system(), mutual_exclusion_invariant, backend="parallel"
            )

    def test_deprecated_spelling_is_gone(self):
        import repro.runtime.exploration as exploration

        assert not hasattr(exploration, "explore_symmetry_reduced")

    def test_package_root_exports_the_unified_surface(self):
        assert repro.explore is explore
        assert repro.sweep is sweep
        for name in ("Telemetry", "NullTelemetry", "RunManifest", "sweep"):
            assert name in repro.__all__


class TestUnifiedSweep:
    def test_backend_string_serial(self):
        result = mutex_sweep(backend="serial")
        assert result.runs == 2 and result.all_ok

    def test_backend_string_process(self):
        serial = mutex_sweep(backend="serial")
        parallel = mutex_sweep(backend="process")
        assert [r.trace.events for r in parallel.records] == [
            r.trace.events for r in serial.records
        ]

    def test_backend_instance_passthrough(self):
        result = mutex_sweep(backend=SerialExecutor())
        assert result.runs == 2

    def test_default_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            mutex_sweep()

    def test_executor_kwarg_is_gone(self):
        with pytest.raises(TypeError, match="executor"):
            mutex_sweep(executor=SerialExecutor())

    def test_manifest_dir_writes_one_manifest_per_cell(self, tmp_path):
        result = mutex_sweep(backend="serial", manifest_dir=tmp_path)
        manifests = load_manifests(tmp_path)
        assert len(manifests) == result.runs
        assert {m.kind for m in manifests} == {"sweep-cell"}
        assert all(m.verdict() == "ok" for m in manifests)

    def test_repeated_manifest_dirs_do_not_overwrite(self, tmp_path):
        mutex_sweep(backend="serial", manifest_dir=tmp_path)
        mutex_sweep(backend="serial", manifest_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 2 and names[0] != names[1]


class TestResolveExecutor:
    def test_strings(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        process = resolve_executor("process", workers=3)
        assert isinstance(process, ProcessExecutor)
        assert process.workers == 3

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_unknown_spec_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown sweep backend"):
            resolve_executor("quantum")
