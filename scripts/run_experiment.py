#!/usr/bin/env python3
"""Compare attribute-group-centre scoring against domain-centre scoring.

Runs the full pipeline on the default corpus and on the attribute-shifted
corpus, scores each trained model with both centre layouts, and prints a
small results table (AUC / pAUC harmonic-mean totals).

Usage:
    python scripts/run_experiment.py --workdir /tmp/hmic_exp [--seed 2022]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hmic.config import RunConfig
from hmic.datagen import default_spec, shifted_spec
from hmic.pipeline import run_eval, run_pipeline, run_score


def run_corpus(name, spec, config, workdir):
    start = time.monotonic()
    report_agc, paths = run_pipeline(config, workdir / name, spec)
    manifest = paths["corpus"] / "manifest.csv"
    scores_dc = workdir / name / "scores_dc.csv"
    outcome = run_score(
        config.with_overrides(scoring_mode="dc"), paths["checkpoint"], manifest, scores_dc
    )
    if outcome.errors:
        raise SystemExit(f"{name}: scoring errors: {outcome.errors[:3]}")
    report_dc = run_eval(scores_dc, manifest, workdir / name / "report_dc.json",
                         pauc_p=config.pauc_p, config_digest=config.semantic_digest())
    elapsed = time.monotonic() - start
    return report_agc, report_dc, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=2022, help="corpus seed")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    config = RunConfig().with_overrides(jobs=args.jobs)
    rows = []
    for name, spec in (
        ("default", default_spec(args.seed)),
        ("shifted", shifted_spec(args.seed)),
    ):
        print(f"running {name} corpus (seed {args.seed})...", flush=True)
        report_agc, report_dc, elapsed = run_corpus(name, spec, config, args.workdir)
        rows.append((name, "agc", report_agc, elapsed))
        rows.append((name, "dc", report_dc, None))

    print()
    print(f"{'corpus':<10}{'scoring':<9}{'AUC hm':>9}{'pAUC hm':>9}{'combined':>10}")
    for name, mode, report, elapsed in rows:
        note = f"  ({elapsed:.0f}s train+score)" if elapsed else ""
        print(
            f"{name:<10}{mode:<9}{report.total_auc:>9.4f}{report.total_pauc:>9.4f}"
            f"{report.total_combined:>10.4f}{note}"
        )
    print("\nper-cell AUC (shifted corpus):")
    for mode, report in (("agc", rows[2][2]), ("dc", rows[3][2])):
        cells = "  ".join(
            f"s{c.section}/{c.domain[:3]}={c.auc:.3f}" for c in report.cells
        )
        print(f"  {mode}: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
