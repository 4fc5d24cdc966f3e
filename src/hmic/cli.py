"""Command-line entry point: generate | train | score | eval | pipeline."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import SCORING_MODES, RunConfig, load_run_config, save_run_config
from .datagen import PRESETS, SynthSpec, generate, load_spec
from .errors import HmicError
from .pipeline import run_eval, run_pipeline, run_score, run_train


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="run config JSON")
    parser.add_argument("--seed", type=int,
                        help="override the training seed (pipeline: the spec's seed too)")
    parser.add_argument("--jobs", type=int, help="parallel feature-extraction workers")


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    return config.with_overrides(
        seed=args.seed,
        jobs=args.jobs,
        scoring_mode=getattr(args, "scoring", None),
        pauc_p=getattr(args, "pauc_p", None),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmic",
        description="Hierarchical-metadata anomalous-sound detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a corpus")
    p_gen.add_argument("--out", type=Path, required=True, help="corpus output directory")
    p_gen.add_argument("--spec", type=Path, help="synth spec JSON (overrides --preset)")
    p_gen.add_argument("--preset", choices=sorted(PRESETS), default="default")
    p_gen.add_argument("--seed", type=int, help="override the spec seed")

    p_train = sub.add_parser("train", help="train models and fit centres")
    p_train.add_argument("--corpus", type=Path, required=True)
    p_train.add_argument("--out", type=Path, required=True, help="checkpoint path")
    p_train.add_argument("--workdir", type=Path, help="directory for cache and logs")
    _add_common(p_train)

    p_score = sub.add_parser("score", help="score test clips against a checkpoint")
    p_score.add_argument("--checkpoint", type=Path, required=True)
    p_score.add_argument("--manifest", type=Path, required=True)
    p_score.add_argument("--out", type=Path, required=True, help="scores CSV path")
    _add_common(p_score)
    p_score.add_argument("--scoring", choices=SCORING_MODES, help="scoring mode")

    p_eval = sub.add_parser("eval", help="compute AUC/pAUC report from scores")
    p_eval.add_argument("--scores", type=Path, required=True)
    p_eval.add_argument("--manifest", type=Path, required=True)
    p_eval.add_argument("--out", type=Path, required=True, help="report JSON path")
    p_eval.add_argument("--csv", type=Path, help="optional flat CSV export")
    p_eval.add_argument("--pauc-p", type=float,
                        help="partial-AUC false-positive-rate cap (default: the config's)")
    p_eval.add_argument("--config", type=Path,
                        help="take pauc_p from this config and embed its digest in the report")

    p_pipe = sub.add_parser("pipeline", help="run all stages under one directory")
    p_pipe.add_argument("--workdir", type=Path, required=True)
    p_pipe.add_argument("--spec", type=Path, help="synth spec JSON")
    p_pipe.add_argument("--preset", choices=sorted(PRESETS), default="default")
    p_pipe.add_argument("--save-config", type=Path, help="write the effective config JSON")
    _add_common(p_pipe)
    p_pipe.add_argument("--scoring", choices=SCORING_MODES, help="scoring mode")
    p_pipe.add_argument("--pauc-p", type=float, help="partial-AUC false-positive-rate cap")

    return parser


def _load_spec(args) -> SynthSpec:
    """``--spec`` if given, else the ``--preset`` at its own seed; ``--seed``
    replaces the spec's seed either way, so ``generate`` and ``pipeline``
    build one corpus from one set of flags."""
    spec = load_spec(args.spec) if args.spec else PRESETS[args.preset]()
    return spec if args.seed is None else replace(spec, seed=args.seed)


def _cmd_generate(args) -> int:
    manifest = generate(_load_spec(args), args.out)
    print(f"wrote corpus with manifest {manifest}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    path = run_train(config, args.corpus, args.out, args.workdir)
    print(f"wrote checkpoint {path}")
    return 0


def _cmd_score(args) -> int:
    config = _load_config(args)
    outcome = run_score(config, args.checkpoint, args.manifest, args.out)
    print(f"scored {outcome.rows - len(outcome.errors)}/{outcome.rows} clips -> {args.out}")
    if outcome.errors:
        for line in outcome.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args) -> int:
    config = load_run_config(args.config) if args.config else RunConfig()
    report = run_eval(args.scores, args.manifest, args.out, args.csv,
                      pauc_p=config.with_overrides(pauc_p=args.pauc_p).pauc_p,
                      config_digest=config.semantic_digest() if args.config else None)
    print(
        f"total AUC {report.total_auc:.4f}  pAUC {report.total_pauc:.4f}  "
        f"combined {report.total_combined:.4f} -> {args.out}"
    )
    return 0


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    spec = _load_spec(args)
    if args.save_config:
        save_run_config(config, args.save_config)
    report, paths = run_pipeline(config, args.workdir, spec)
    for section in report.section_aucs:
        print(f"{section.machine_type} section {section.section}: AUC {section.auc:.4f}")
    print(
        f"total AUC {report.total_auc:.4f}  pAUC {report.total_pauc:.4f}  "
        f"combined {report.total_combined:.4f}"
    )
    print(f"report: {paths['report_json']}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (HmicError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
