"""Run the benchmark on a base revision and on the working tree in
alternating pairs, and summarize each end-to-end metric.

    python tools/bench_pairs.py BASE_REV --workload mid-src --pairs 10 \
        [--change REV] [--seed 1] [--seconds 1] [--tag NAME]

Extracts BASE_REV's `src/` and `bench/` under `.bench_work/` with `git
archive`, and CHANGE_REV's too if one is given; otherwise the working
tree is the change.  Pair i runs each tree's `bench/run.py --trace 0`
with seed SEED+i, each run in a fresh process; the base runs first in
even-numbered pairs and second in odd ones.

For each end-to-end metric that BENCHMARK.json lists, prints each side's
median [quartiles], the pairs the change won and the median change/base
ratio, then each side's median `host.ref_s` and environment line.  The
run, every pair's numbers included, is stored in BENCH_<tag>.json at the
repo root under "<workload> <base>..<change>", beside the runs already
there.  A run against the same revision (`--change BASE_REV`) measures
the noise floor.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENVIRONMENT = ("numpy", "blas", "blas_version", "blas_threads", "nproc",
               "python")


def extract(rev: str, dest: Path) -> Path:
    """`src/` and `bench/` of `rev`, extracted into `dest`."""
    archive = subprocess.run(["git", "archive", rev, "src", "bench"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark process in `tree`: its end-to-end metrics,
    `host.ref_s` and environment."""
    lines = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout.splitlines()
    header, result = json.loads(lines[-2][2:]), json.loads(lines[-1])
    if result["failed"] or not result["correct"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed: {result}")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "host.ref_s": header["host.ref_s"],
            "environment": {k: header[k] for k in ENVIRONMENT}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "quartiles": [q1, q3]}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric ({"name", "better"} as in BENCHMARK.json): each side's
    median and quartiles, the pairs the change won, the median ratio."""
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        summary[name] = {
            "base": spread(base), "change": spread(change),
            "change_won": sum((c < b) if lower else (c > b)
                              for b, c in zip(base, change)),
            "pairs": len(pairs),
            "median_ratio": statistics.median(
                c / b for b, c in zip(base, change))}
    for side in ("base", "change"):
        summary[f"host.ref_s.{side}"] = statistics.median(
            p[side]["host.ref_s"] for p in pairs)
    return summary


def report(title: str, summary: dict, pairs: list[dict]) -> None:
    print(title)
    for name, s in summary.items():
        if name.startswith("host.ref_s"):
            continue
        print(f"  {name}: base {s['base']['median']:.4g} "
              f"[{s['base']['quartiles'][0]:.4g}, "
              f"{s['base']['quartiles'][1]:.4g}], change "
              f"{s['change']['median']:.4g} "
              f"[{s['change']['quartiles'][0]:.4g}, "
              f"{s['change']['quartiles'][1]:.4g}]; change won "
              f"{s['change_won']} of {s['pairs']}, median ratio "
              f"{s['median_ratio']:.3f}")
    for side in ("base", "change"):
        print(f"  {side}: host.ref_s {summary[f'host.ref_s.{side}']:.4g}, "
              f"{json.dumps(pairs[0][side]['environment'])}")


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("--change", help="a revision (default: the working tree)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--tag", default="pairs")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench_pairs.",
                                 dir=ROOT / ".bench_work"))
    try:
        trees = {"base": extract(args.base, work / "base"),
                 "change": extract(args.change, work / "change")
                 if args.change else ROOT}
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed,
                                      args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: pipeline_s base "
                  f"{pair['base']['metrics']['pipeline_s']:.3f}, change "
                  f"{pair['change']['metrics']['pipeline_s']:.3f}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work)
    change = args.change or "working tree"
    key = f"{args.workload} {args.base}..{change}"
    summary = summarize(pairs, spec)
    report(f"{key}: {args.pairs} pairs, seeds {args.seed}-"
           f"{args.seed + args.pairs - 1}, --seconds {args.seconds:g}",
           summary, pairs)
    out = ROOT / f"BENCH_{args.tag}.json"
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs[key] = {"workload": args.workload, "base": args.base,
                 "change": change, "seconds": args.seconds,
                 "summary": summary, "pairs": pairs}
    out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
