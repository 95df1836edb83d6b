"""``repro.verify`` — exhaustive verification over retained state graphs.

The graph layer (:mod:`repro.verify.graph`) is what the exploration
backends retain under ``explore(..., retain_graph=True)``; the liveness
layer (:mod:`repro.verify.liveness`) decides the paper's
deadlock-freedom and obstruction-freedom theorems over it by SCC and
solo-run analysis, returning replayable lasso counterexamples; the
runner (:mod:`repro.verify.runner`) drives registry instances
(:mod:`repro.problems`) through the whole pipeline for
``python -m repro verify``.
"""

from repro.verify.graph import Edge, GraphRecorder, StateGraph
from repro.verify.liveness import (
    LIVENESS_CHECKERS,
    Lasso,
    LivenessVerdict,
    check_deadlock_freedom,
    check_obstruction_freedom,
)
from repro.verify.runner import (
    PropertyOutcome,
    VerificationReport,
    verify_instance,
    verify_manifest,
    write_verify_manifest,
)

__all__ = [
    "Edge",
    "GraphRecorder",
    "LIVENESS_CHECKERS",
    "Lasso",
    "LivenessVerdict",
    "PropertyOutcome",
    "StateGraph",
    "VerificationReport",
    "check_deadlock_freedom",
    "check_obstruction_freedom",
    "verify_instance",
    "verify_manifest",
    "write_verify_manifest",
]
