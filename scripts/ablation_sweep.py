#!/usr/bin/env python3
"""Sweep the section-ID loss weight, whose endpoints are the single-head ablations.

Trains one model per weight on the same corpus and reports the AUC/pAUC
totals under attribute-group-centre scoring. Weight 1.0 trains the section-ID
head alone (the domain_only ablation), weight 0.0 the attribute-group head
alone (the attribute_only ablation); the rows for those weights carry the
ablation's name.

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


def run_setting(config, corpus, rundir):
    """Train, score (agc) and evaluate one setting under ``rundir``; its
    ``report.json`` carries the setting's config digest."""
    manifest = corpus / "manifest.csv"
    checkpoint = rundir / "model.hmic"
    run_train(config, corpus, checkpoint, rundir)
    scores = rundir / "scores.csv"
    outcome = run_score(config, checkpoint, manifest, scores, rundir)
    if outcome.errors:
        raise SystemExit(f"{rundir.name}: scoring errors: {outcome.errors[:3]}")
    return run_eval(scores, manifest, rundir / "report.json", pauc_p=config.pauc_p,
                    config_digest=config.semantic_digest())


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

    ablations = {0.0: "attribute_only", 1.0: "domain_only"}

    # The settings differ only past the front end, so they share one feature
    # cache: each clip is extracted once for the whole sweep.
    os.environ.setdefault("HMIC_CACHE_DIR", str(args.workdir / "feature_cache"))
    print(f"{'setting':<28}{'AUC hm':>9}{'pAUC hm':>9}{'combined':>10}")
    for weight in args.weights:
        config = RunConfig(model=ModelConfig(id_loss_weight=weight))
        tag = f"weight={weight:g}"
        rundir = args.workdir / tag.replace("=", "_")
        if weight in ablations:
            tag += f" ({ablations[weight]})"
        report = run_setting(config, corpus, rundir)
        print(
            f"{tag:<28}{report.total_auc:>9.4f}{report.total_pauc:>9.4f}"
            f"{report.total_combined:>10.4f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
