"""Compare two saved benchmark results, flagging runs from different hosts.

    python3 perfbench/compare.py .perfbench/result-A.json .perfbench/result-B.json

Each result file carries the fingerprint of the run that wrote it.  A
comparison across hosts (CPU count, Python version or machine type)
prints a warning and exits 1, because such numbers measure the host as
much as the code.  Differing commits and seeds are reported but are what
a comparison between two versions normally has.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

HOST_KEYS = ("nproc", "python", "machine")
NOTED_KEYS = ("commit", "source_sha256", "seed")


def fingerprint_differences(a: Dict[str, Any], b: Dict[str, Any], keys) -> List[str]:
    return [f"{key}: {a.get(key)!r} vs {b.get(key)!r}" for key in keys if a.get(key) != b.get(key)]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    if (first["workload"], first["trace"]) != (second["workload"], second["trace"]):
        print("the two results are from different workloads or trace modes", file=sys.stderr)
        return 2
    host = fingerprint_differences(first["fingerprint"], second["fingerprint"], HOST_KEYS)
    for line in host:
        print(f"WARNING host fingerprints differ, {line}: not comparable")
    for line in fingerprint_differences(first["fingerprint"], second["fingerprint"], NOTED_KEYS):
        print(f"note {line}")
    print(f"{first['workload']} trace={first['trace']}")
    for name in sorted(set(first["metrics"]) & set(second["metrics"])):
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name} {a:.6g} -> {b:.6g} {first['metrics'][name]['unit']} ({change})")
    return 1 if host else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
