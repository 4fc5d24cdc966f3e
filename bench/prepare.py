#!/usr/bin/env python3
"""Build one workload's set-up in a fresh process.

``bench/run.py`` starts this once per set-up repeat and times it from start
to exit, so each repeat pays for the interpreter, the imports, the corpus
and, where the timed part does not train, the checkpoint training:

    python3 bench/prepare.py --workload dcase-score --seed 1 --dir DIR [--spans FILE]

With ``--spans`` the set-up runs under the traced run's hooks and its spans
are written to FILE as ``[name, start, end, parent, counters]`` rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    if args.spans is None:
        workloads.build(workload, args.seed, args.dir)
        return 0

    import layers
    from spans import Recorder, installed

    recorder = Recorder()
    with installed(recorder, layers.hooks()):
        workloads.build(workload, args.seed, args.dir)
    rows = [[s.name, s.start, s.end, s.parent, s.counters] for s in recorder.spans]
    args.spans.write_text(json.dumps(rows), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
