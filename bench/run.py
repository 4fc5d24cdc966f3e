#!/usr/bin/env python3
"""Run one hmic benchmark workload and print its metrics as one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-shifted --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps hmic's functions in spans and reports the per-layer metrics. Set-up
runs several times, each time in a fresh process (``bench/prepare.py``) that
pays for the interpreter, the imports, the corpus generation and, on
``dcase-score``, the checkpoint training; the median counts. The timed part
repeats in this process in a closed loop, each time in a fresh workdir with
an empty feature cache, until ``--seconds`` would be exceeded by one more
pass; the set-up repeats after the first run between the passes. Every
pass's outputs are checked. A results file with the environment, every pass's stage times and
the numeric fingerprint goes to ``.bench_work/results/``; the last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1
SETUP_TIMEOUT_S = 150
MIN_TRACE_PAIRS = 2  # (traced, plain) pairs a traced run measures at least

clock = time.perf_counter


def _configure_process() -> None:
    """Fix BLAS threads before numpy loads, and make the feature cache local."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = threads
    os.environ.pop("HMIC_CACHE_DIR", None)
    src = ROOT / "src"
    if not (src / "hmic" / "__init__.py").is_file():
        sys.exit(f"bench: no hmic package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


def environment(seed: int, jobs: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "jobs": jobs,
        "seed": seed,
    }


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or the configured value if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(value) if value else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _rusage() -> tuple[float, float, int]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime, usage.ru_minflt


def _delta(after, before):
    return tuple(a - b for a, b in zip(after, before))


def _median(values):
    return statistics.median(values) if values else None


def traced_pass(index: int) -> bool:
    """Whether pass ``index`` of a traced run is traced.

    Passes come in pairs of one traced and one plain pass. The traced pass
    leads in even pairs and trails in odd ones, so neither kind always runs
    first."""
    return index % 2 == (index // 2) % 2


def overhead_ratios(passes: list[tuple[bool, float]]) -> list[float]:
    """Traced wall over plain wall, minus 1, for each (traced, wall_s) pair."""
    ratios = []
    for a, b in zip(passes[::2], passes[1::2]):
        (_, traced), (_, plain) = (a, b) if a[0] else (b, a)
        ratios.append(traced / plain - 1)
    return ratios


class Run:
    """One run's measurements of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        import layers
        import workloads

        self.w = workloads
        self.layers = layers
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.setup_s: list[float] = []
        self.passes: list[dict] = []
        self.setup_spans = None

    def set_up(self, r: int) -> Path:
        """Build set-up repeat ``r`` in a fresh process, timed from its start to
        its exit, into its own directory."""
        from spans import Span

        directory = self.work / f"setup{r}"
        directory.mkdir(parents=True)
        spans_file = directory / "spans.json"
        command = [sys.executable, str(BENCH / "prepare.py"), "--workload",
                   self.workload.name, "--seed", str(self.seed), "--dir", str(directory)]
        if self.trace:
            command += ["--spans", str(spans_file)]
        start = clock()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        self.setup_s.append(clock() - start)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up failed ({proc.returncode}):\n{proc.stderr}")
        if self.trace:
            rows = json.loads(spans_file.read_text(encoding="utf-8"))
            self.setup_spans = [Span(*row) for row in rows]
        return directory

    def measure(self) -> None:
        """Set up, then run passes of the timed part on the first set-up's
        corpus for about ``--seconds``.

        A plain run makes its other set-up repeats one after each pass, so
        set-up and passes sample the same spell of the machine; the repeats
        left when the passes end run last. A traced run sets up once."""
        repeats = 1 if self.trace else self.workload.setup_repeats
        prepared = self.w.prepared(self.workload, self.seed, self.set_up(0))
        spent = 0.0  # time in passes and their checks, set-up excluded
        index = 0
        while True:
            start = clock()
            self._pass(index, prepared)
            spent += clock() - start
            index += 1
            if len(self.setup_s) < repeats:
                shutil.rmtree(self.set_up(len(self.setup_s)), ignore_errors=True)
            if self.trace and (index % 2 or index < 2 * MIN_TRACE_PAIRS):
                continue  # a traced run ends on whole pairs
            longest = max(p["it"].wall_s for p in self.passes)
            if spent + (2 if self.trace else 1) * longest > self.seconds:
                break
        while len(self.setup_s) < repeats:
            shutil.rmtree(self.set_up(len(self.setup_s)), ignore_errors=True)

    def _pass(self, index: int, prepared) -> None:
        """One pass of the timed part in a fresh workdir, then its output check."""
        from spans import Recorder, installed

        traced = self.trace and traced_pass(index)
        directory = self.work / f"pass{index}"
        directory.mkdir(parents=True)
        recorder = Recorder() if traced else None
        before = _rusage()
        if traced:
            with installed(recorder, self.layers.hooks()):
                it = self.w.run_timed(self.workload, self.seed, prepared, directory, clock)
        else:
            it = self.w.run_timed(self.workload, self.seed, prepared, directory, clock)
        usage = _delta(_rusage(), before)
        checked = self.w.check(self.workload, self.seed, prepared, it)
        shutil.rmtree(directory, ignore_errors=True)
        self.passes.append({"it": it, "checked": checked, "traced": traced,
                            "spans": recorder.spans if traced else None, "usage": usage})

    # --- results ------------------------------------------------------------

    def outcome(self) -> dict:
        attempted = sum(p["checked"]["attempted"] for p in self.passes)
        failed = sum(p["checked"]["failed"] for p in self.passes)
        errors = [e for p in self.passes for e in p["checked"]["errors"]]
        first = self.passes[0]["checked"]
        fingerprints = {
            json.dumps([p["checked"][k] for k in ("totals", "undefined", "checkpoint_sha256",
                                                   "scores")], sort_keys=True)
            for p in self.passes
        }
        if len(fingerprints) > 1:
            errors.append("passes of one seed disagree on scores, totals or checkpoints")
        return {
            "correct": failed == 0 and not errors,
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:20],
            "totals": first["totals"],
            "undefined": first["undefined"],
            "checkpoint_sha256": first["checkpoint_sha256"],
            "scores": first["scores"],
        }

    def end_to_end(self, outcome: dict) -> tuple[dict, dict]:
        """The end-to-end metrics, and the stage figures a workload has only
        sometimes (kept in the results file, not in the summary line)."""
        its = [p["it"] for p in self.passes]

        def stage_times(kind):
            return [t for it in its for k, t in it.stages if k == kind]

        def total(key_mode, field, pick=min):
            values = [v[field] for k, v in outcome["totals"].items() if k.endswith("/" + key_mode)]
            return pick(values) if values else None

        metrics = {
            "setup_s": (_median(self.setup_s), "s"),
            "wall_s": (_median([it.wall_s for it in its]), "s"),
            "score_cold_s": (_median(stage_times("score_agc")), "s"),
            # Set-up ran in child processes, so this is the timed part's peak.
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        trains = [sum(t for k, t in it.stages if k == "train") for it in its]
        extra = {
            "train_s": (_median(trains) if any(trains) else None, "s"),
            "score_warm_s": (_median(stage_times("score_dc")), "s"),
            "eval_s": (_median(stage_times("eval")), "s"),
            "auc_agc": (total("agc", "auc"), "ratio"),
            "pauc_agc": (total("agc", "pauc"), "ratio"),
            "auc_dc": (total("dc", "auc"), "ratio"),
            "pauc_dc": (total("dc", "pauc"), "ratio"),
            "failed_ratio": (outcome["failed"] / outcome["attempted"], "ratio"),
            "undefined_reports": (len(outcome["undefined"]), "count"),
            "passes": (len(its), "count"),
        }
        return metrics, extra

    def per_layer(self) -> dict:
        """Per-layer metrics of the mean traced pass.

        Spans only set-up calls (corpus generation, and the training on a
        workload whose set-up trains) are reported from set-up instead; the
        run exits if the timed part called one of them. It also exits when a
        span the workload is meant to exercise recorded no calls, because then
        a hook sits where no caller looks."""
        from spans import Totals, totals_by_name

        traced = [p for p in self.passes if p["traced"]]
        timed = _mean_totals([totals_by_name(p["spans"]) for p in traced])
        from_setup = set(self.layers.SETUP_SPANS)
        if self.workload.setup_trains(self.seed):
            from_setup |= self.layers.TRAINING_SPANS
        stray = sorted(from_setup & set(timed))
        if stray:
            sys.exit(f"bench: the timed part called {', '.join(stray)}, which only set-up "
                     f"should call on {self.workload.name}")
        setup = totals_by_name(self.setup_spans)
        combined = {**timed, **{name: setup[name] for name in from_setup if name in setup}}
        missing = sorted(
            name for name in self.layers.exercised_spans() - self.workload.unexercised
            if combined.get(name, Totals()).calls == 0
        )
        if missing:
            sys.exit(f"bench: traced run recorded no calls of {', '.join(missing)}; "
                     f"a hook is not where the caller looks the function up")
        values = self.layers.span_metrics(combined)
        usage = [statistics.fmean(p["usage"][i] for p in traced) for i in range(3)]
        values["proc.cpu_user_s"], values["proc.cpu_sys_s"], values["proc.minor_faults"] = usage
        values["trace.overhead_ratio"] = self.overhead()["median"]
        covered = []
        for p in traced:
            own = totals_by_name(p["spans"])
            claimed = sum(t.self_s for n, t in own.items() if not n.startswith("pipeline."))
            covered.append(claimed / p["it"].wall_s)
        values["trace.coverage"] = statistics.fmean(covered)
        units = {m["name"]: m["unit"] for m in self.layers.per_layer_spec()}
        return {name: (value, units[name]) for name, value in values.items()}

    def overhead(self) -> dict:
        """Every pair's overhead ratio; unresolved when their range exceeds the median."""
        ratios = overhead_ratios([(p["traced"], p["it"].wall_s) for p in self.passes])
        median = statistics.median(ratios)
        return {"pairs": ratios, "median": median,
                "resolved": max(ratios) - min(ratios) <= abs(median)}

    def spans_dump(self) -> dict:
        phases = [("setup", self.setup_spans)]
        phases += [(f"pass{i}", p["spans"]) for i, p in enumerate(self.passes) if p["traced"]]
        return {
            phase: [[s.name, s.start, s.end, s.parent, s.counters] for s in spans]
            for phase, spans in phases
        }


def _mean_totals(parts: list[dict]) -> dict:
    """Span totals averaged over passes; counts of identical passes stay exact."""
    from spans import Totals

    out: dict = {}
    for part in parts:
        for name, entry in part.items():
            into = out.setdefault(name, Totals())
            into.calls += entry.calls / len(parts)
            into.self_s += entry.self_s / len(parts)
            into.total_s += entry.total_s / len(parts)
            for key, value in entry.counters.items():
                into.counters[key] = into.counters.get(key, 0) + value / len(parts)
    return out


def _reference_deviation(workload: str, seed: int, outcome: dict) -> dict:
    """Largest |score - reference score| for this seed, if a reference was kept."""
    path = BENCH / "reference" / f"{workload}.json"
    try:
        reference = json.loads(path.read_text(encoding="utf-8")).get(str(seed))
    except FileNotFoundError:
        reference = None
    if reference is None:
        return {"reference": None}
    worst = 0.0
    for key, values in outcome["scores"].items():
        expected = reference["scores"].get(key, [])
        if len(expected) != len(values):
            worst = float("inf")
            continue
        worst = max([worst] + [abs(a - b) for a, b in zip(values, expected)])
    return {
        "reference": str(path.relative_to(ROOT)),
        "score_max_abs_dev": worst,
        "checkpoint_matches": reference["checkpoint_sha256"] == outcome["checkpoint_sha256"],
        "totals_match": reference["totals"] == outcome["totals"],
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _configure_process()
    sys.path.insert(0, str(BENCH))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / "runs" / tag
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome = run.outcome()
    metrics, extra = run.end_to_end(outcome)
    if args.trace:
        metrics = run.per_layer()

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, workload.settings(args.seed)[0].config.jobs),
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "errors": outcome["errors"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_runs_s": run.setup_s,
        "trace_overhead": run.overhead() if args.trace else None,
        "passes": [
            {"traced": p["traced"], "wall_s": p["it"].wall_s, "stages": p["it"].stages}
            for p in run.passes
        ],
        "fingerprint": {
            "checkpoint_sha256": outcome["checkpoint_sha256"],
            "totals": outcome["totals"],
            "undefined_reports": outcome["undefined"],
            **_reference_deviation(args.workload, args.seed, outcome),
        },
        "scores": outcome["scores"],
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / f"{tag}.json"
    results_path.write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
    if args.trace:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(run.spans_dump()), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(run.passes)}  "
          f"results {results_path.relative_to(ROOT)}")
    _print_table("metrics:", metrics)
    _print_table("stage figures (results file only):", extra)
    check = "ok" if outcome["correct"] else "FAILED: " + "; ".join(outcome["errors"][:3])
    if args.trace and not results["trace_overhead"]["resolved"]:
        print(f"trace.overhead_ratio unresolved: pair ratios {results['trace_overhead']['pairs']}")
    print(f"output check: {check}  ({outcome['failed']} of {outcome['attempted']} clips failed)")
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
