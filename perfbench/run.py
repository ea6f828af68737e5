"""Benchmark entry point.

    python3 perfbench/run.py --workload finite_stanley --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout that has ``src/stansym``.  Human-readable
progress goes to stderr; the last line on stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced round.  Op lists, spans and a summary of every
run are written under ``perfbench/out/``.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "stansym" / "__init__.py").is_file():
        print(f"error: no stansym package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
