"""docnmt benchmark: one workload per process, driven through docnmt.cli.run.

    python3 bench/run.py --workload desk-trg --seed 1 --seconds 15 --trace 0

With `--trace 0` the run sets up three times (setup_s is the import time
plus the median set-up), then repeats whole rounds of the workload's CLI
sequence until `--seconds` have passed and reports the median round.
With `--trace 1` it runs an untraced, a traced and another untraced round
and reports the per-layer numbers; the phase throughputs among them come
from the first, untraced round.  The last line of stdout is the JSON
result; the line before it records the environment and host.ref_s.  See
README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a 2-core VM, two threads made the same mid-src round
# vary by 10% between processes, one thread by 3.6% (and 23% slower).
BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

SETUPS = 3
VARIANTS = ("baseline", "shared-target", "separated-target", "shared-source",
            "separated-source")
LAYER_TIMES = [
    "corpus.generate_synthetic", "corpus.load_documents", "corpus.make_batches",
    "bpe.learn_bpe", "bpe.segment", "bpe.build_vocab",
    "tensor.lstm_cell", "tensor.dot_attention", "tensor.matmul",
    "tensor.softmax", "tensor.cross_entropy", "tensor.backward",
    "tensor.clip_global_norm", "tensor.adagrad_step",
    "model.encode", "model.forward_loss", "model.decode_step",
    "model.context_states", "model.load_checkpoint", "model.save_checkpoint",
    "training.train_model", "training.dev_decode",
    "evaluation.greedy", "evaluation.gold", "evaluation.beam",
    "evaluation.bleu", "evaluation.bootstrap", "evaluation.score_slots",
]
CLI_COMMANDS = ["synth", "preprocess", "train_baseline", "finetune",
                "translate", "evaluate", "compare"]


def host_ref() -> float:
    """Median of three runs of a fixed computation that never calls docnmt."""
    import numpy as np
    times = []
    for _ in range(3):
        a = np.random.default_rng(0).standard_normal((256, 256)).astype(
            np.float32)
        start = time.perf_counter()
        for _ in range(100):
            a = np.tanh(a @ a * 0.05)
        total = 0
        for i in range(200_000):
            total += i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def phase_metrics(phase_s: dict, work: dict) -> dict:
    """Phase throughputs of one untraced round (zero where absent)."""
    def rate(count, phase):
        return work.get(count, 0) / phase_s[phase] if phase_s.get(phase) else 0.0
    return {
        "train_tok_s": (rate("train_tokens", "train"), "tok/s"),
        "decode_sent_s": (rate("greedy_sents", "greedy"), "sent/s"),
        "gold_decode_sent_s": (rate("gold_sents", "gold"), "sent/s"),
        "beam_sent_s": (rate("beam_sents", "beam"), "sent/s"),
        "preprocess_s": (phase_s.get("preprocess", 0.0), "s"),
        "score_s": (phase_s.get("score", 0.0), "s"),
    }


def layer_metrics(tracer) -> dict:
    m = {}
    for name in CLI_COMMANDS:
        m[f"cli.{name}_s"] = (tracer.total_s[f"cli.{name}"], "s")
    m["cli.self_s"] = (sum(tracer.self_s[f"cli.{n}"] for n in CLI_COMMANDS),
                       "s")
    for name in LAYER_TIMES:
        m[f"{name}_s"] = (tracer.self_s[name], "s")
    for name in ("tensor.lstm_cell", "tensor.dot_attention",
                 "model.decode_step"):
        m[f"{name}_calls"] = (tracer.calls[name], "count")
    for name in ("tensor.graph_nodes", "training.tokens",
                 "bpe.merges_learned"):
        m[name] = (tracer.counts[name], "count")
    c = tracer.counts
    for v in VARIANTS:
        m[f"training.tok_s.{v}"] = (
            c[f"tokens.{v}"] / c[f"seconds.{v}"] if c[f"seconds.{v}"] else 0.0,
            "tok/s")
        m[f"evaluation.greedy_sent_s.{v}"] = (
            c[f"sentences.greedy.{v}"] / c[f"seconds.greedy.{v}"]
            if c[f"seconds.greedy.{v}"] else 0.0, "sent/s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "docnmt" / "cli.py").is_file():
        print(f"error: no docnmt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as W
    from tracer import Tracer
    import_s = time.perf_counter() - START
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work = W.fresh_dir(work_root / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = W.WORKLOADS[args.workload](args.seed, args.tiny)
        h = W.Harness()
        setups = []
        for _ in range(1 if args.trace else SETUPS):
            start = time.perf_counter()
            inputs = W.fresh_dir(work / "inputs")
            workload.prepare(inputs)
            setups.append(time.perf_counter() - start)

        def round_(tracer=None):
            h.phase_s.clear()
            if tracer:
                tracer.install()
            try:
                counts = workload.run_round(h, inputs, W.fresh_dir(work / "round"))
            finally:
                if tracer:
                    tracer.uninstall()
            return sum(h.phase_s.values()), dict(h.phase_s), counts

        measure_start = time.perf_counter()
        pipeline, phases, counts = round_()
        rounds = [pipeline]
        if args.trace:
            # Untraced rounds before and after the traced one, so that
            # drift and the slower first round cancel out of the overhead.
            tracer = Tracer()
            traced = round_(tracer)[0]
            rounds.append(round_()[0])
            metrics = {**phase_metrics(phases, counts), **layer_metrics(tracer),
                       "trace.overhead_s": (traced - statistics.mean(rounds),
                                            "s")}
            work_root.mkdir(exist_ok=True)
            tracer.write_spans(
                work_root / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            while time.perf_counter() - measure_start < args.seconds:
                pipeline, phases, counts = round_()
                rounds.append(pipeline)
            metrics = {
                "setup_s": (import_s + statistics.median(setups), "s"),
                "pipeline_s": (statistics.median(rounds), "s"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        workload.library_checks(h, inputs, work / "round")
        ref = host_ref()
        if args.trace:
            metrics["host.ref_s"] = (ref, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in h.errors + h.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "rounds_s": rounds, "last_round_phases_s": phases,
                             "import_s": import_s,
                             "setups_s": setups, "host.ref_s": ref,
                             **environment()}))
    print(json.dumps({
        "correct": not h.problems, "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
