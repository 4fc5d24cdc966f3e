#!/usr/bin/env python3
"""Sweep the section-ID loss weight and the single-head ablations.

Trains one model per setting on the same corpus and reports the AUC/pAUC
totals under attribute-group-centre scoring. Weight 1.0 reproduces the
domain_only ablation objective, weight 0.0 the attribute_only one; the
dedicated ablation modes are included to confirm that equivalence.

Usage:
    python scripts/ablation_sweep.py --workdir /tmp/hmic_ablation \
        [--weights 0.0 0.25 0.5 0.75 1.0] [--preset shifted]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hmic.config import RunConfig
from hmic.datagen import PRESETS, generate
from hmic.model import ModelConfig
from hmic.pipeline import run_eval, run_score, run_train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="shifted")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--weights", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 1.0]
    )
    args = parser.parse_args()

    corpus = args.workdir / "corpus"
    if not (corpus / "manifest.csv").exists():
        print("generating corpus...", flush=True)
        generate(PRESETS[args.preset](args.seed), corpus)
    manifest = corpus / "manifest.csv"

    settings = [(f"weight={w:g}", "hmic", w) for w in args.weights]
    settings += [("domain_only", "domain_only", 0.5), ("attribute_only", "attribute_only", 0.5)]

    # The settings differ only past the front end, so they share one feature
    # cache: each clip is extracted once for the whole sweep.
    os.environ.setdefault("HMIC_CACHE_DIR", str(args.workdir / "feature_cache"))
    print(f"{'setting':<16}{'AUC hm':>9}{'pAUC hm':>9}{'combined':>10}")
    for tag, ablation, weight in settings:
        config = RunConfig(
            model=ModelConfig(id_loss_weight=weight),
            ablation=ablation,
        )
        rundir = args.workdir / tag.replace("=", "_")
        checkpoint = rundir / "model.hmic"
        run_train(config, corpus, checkpoint, rundir)
        scores = rundir / "scores.csv"
        outcome = run_score(config, checkpoint, manifest, scores, rundir)
        if outcome.errors:
            raise SystemExit(f"{tag}: scoring errors: {outcome.errors[:3]}")
        report = run_eval(scores, manifest, rundir / "report.json", pauc_p=config.pauc_p)
        print(
            f"{tag:<16}{report.total_auc:>9.4f}{report.total_pauc:>9.4f}"
            f"{report.total_combined:>10.4f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
