"""Time-to-verdict benchmark for ``repro``: one workload per process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-registry --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run repeats the workload's iteration (closed
loop, one client) for as many whole iterations as fit in ``--seconds``
(at least one) and reports the end-to-end metrics: ``wall_s`` (median
iteration), ``peak_rss_mb`` and ``setup_s`` (median of fresh-interpreter
set-ups).  With ``--trace 1`` it makes one traced pass over *every*
workload, the named one first, and reports the per-layer metrics.  See
perfbench/README.md.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run also writes its result, with the host
fingerprint, to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Checked  # noqa: E402


def load_answers() -> Dict[str, Any]:
    return json.loads((HERE / "known_answers.json").read_text())


def fingerprint(seed: int) -> Dict[str, Any]:
    """What makes two runs comparable: host, interpreter, code and seed."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = probe.stdout.strip() or None
        except FileNotFoundError:  # without git, the source digest still identifies the code
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its waited-for children's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(workload: str, seed: int) -> List[float]:
    """Set-up times of fresh interpreters (import, resolve, build)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def one_iteration(workload, tracer, op: str) -> Tuple[float, Checked]:
    """Time one pass of entry-point calls, then check the results.

    The results go out of scope on return, so two iterations' retained
    graphs never coexist in memory.
    """
    started = time.perf_counter()
    results = workload.call(tracer, op)
    seconds = time.perf_counter() - started
    return seconds, workload.check(results, tracer, op)


def run_untraced(
    name: str, seed: int, seconds: float, full: bool = True
) -> Tuple[Dict, List, Dict]:
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, full, load_answers(), scratch)
    workload.prepare(NullTracer())
    times: List[float] = []
    ops = []
    counts: Dict[str, Any] = {}
    started = time.perf_counter()
    while not times or (
        time.perf_counter() - started + statistics.median(times) <= seconds
    ):
        elapsed, checked = one_iteration(workload, NullTracer(), "pass")
        times.append(elapsed)
        ops.extend(checked.ops)
        counts = checked.counts
    rss = peak_rss_mb()  # before the set-up probes add children of their own
    setups = setup_seconds(name, seed)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(times),
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": setups, "wall_s": times, "peak_rss_mb": [rss]}
    return metrics, ops, {"samples": samples, "counts": counts}


def run_traced(name: str, seed: int, full: bool = True) -> Tuple[Dict, List, Dict]:
    """One traced iteration of every workload, the named one first.

    Each workload's set-up and iteration are traced, then its probes run.
    The named workload also runs one untraced iteration first: the
    reference for the tracing overhead.
    """
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    metrics: Dict[str, float] = {}
    ops = []
    self_time: Dict[str, float] = defaultdict(float)
    covered = 0.0
    order = [name] + [other for other in WORKLOADS if other != name]
    for current in order:
        workload = WORKLOADS[current](seed, full, load_answers(), scratch)
        with tracer.span("bench", "setup", f"setup/{current}") as setup:
            workload.prepare(tracer)
        if current == name:
            untraced, checked = one_iteration(workload, NullTracer(), "reference")
            ops.extend(checked.ops)
        with tracer.span("bench", "pass", f"pass/{current}") as iteration:
            results = workload.call(tracer, f"pass/{current}")
        if current == name:
            metrics["trace.overhead_share"] = iteration.seconds / untraced - 1.0
        checked = workload.check(results, tracer, f"pass/{current}")
        del results
        ops.extend(checked.ops)
        for span in (setup, iteration):
            covered += span.seconds
            for layer, seconds in tracer.self_seconds(span).items():
                self_time[layer] += seconds
        metrics.update(workload.probe(tracer))
        ops.extend(workload.probe_checked.ops)
    # With spans only around entry points, the self time of ``problems``
    # is its set-up (problems.build_s) and that of ``runtime`` is the walks
    # (runtime.walk_s, from ExploreScale.probe).
    metrics["problems.build_s"] = self_time["problems"]
    for layer in ("verify", "fuzz", "farm"):
        metrics[f"{layer}.self_s"] = self_time[layer]
    metrics["trace.unaccounted_share"] = self_time["bench"] / covered
    spans_file = OUT / f"spans-{name}-seed{seed}.json"
    tracer.dump(spans_file)
    return metrics, ops, {"spans": str(spans_file.relative_to(ROOT))}


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    return measure(args.workload, args.seed, args.seconds, args.trace)


def measure(
    workload: str, seed: int, seconds: float, trace: int, full: bool = True
) -> int:
    """Run one workload (``full=False``: the reduced targets), print the
    report with the result as its last line, and save the result."""
    host = fingerprint(seed)
    print("fingerprint " + json.dumps(host, sort_keys=True))
    if trace:
        metrics, ops, extra = run_traced(workload, seed, full)
        units = metric_units("per_layer")
    else:
        metrics, ops, extra = run_untraced(workload, seed, seconds, full)
        units = metric_units("end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = [op for op in ops if op.error is not None]
    for op in failed:
        print(f"FAILED {op.name}: {op.error}")
    for key, values in extra.get("samples", {}).items():
        print(f"samples {key} n={len(values)} " + " ".join(f"{v:.6g}" for v in values))
    for key in sorted(units):
        print(f"{key} {metrics[key]:.6g} {units[key]}")
    print(f"failed_share {len(failed) / len(ops):.6g} share ({len(failed)}/{len(ops)})")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in sorted(units)
        },
    }
    record = dict(
        result,
        workload=workload,
        trace=trace,
        fingerprint=host,
        failures=[f"{op.name}: {op.error}" for op in failed],
        **extra,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
