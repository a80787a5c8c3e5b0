"""Check that the working tree writes exactly what a base revision does.

    python tools/same_outputs.py BASE_REV

Extracts BASE_REV's `src/` under `.bench_work/` with `git archive` and
runs two pipelines with BASE_REV's `src/` and three with the working
tree's.  Each run is a fresh process with one BLAS thread, in its own
output directory and with relative paths, so manifests compare too.

The desk pipeline runs with both trees, and with the working tree once
more with every product on docnmt's worker thread
(`tensor.WORKER_MIN_MACS` set to 0 inside that run, which fails if the
name is gone), since desk-size products never reach the worker.  It
takes trg-informative corpora from synth seeds 11/12/13 (1000/60/120
documents), 200 BPE merges, a baseline and every context variant
trained for 4 epochs with seed 5, then greedy, `--gold-context` and
`--beam 5` translations of the test set by all six models.

The many-types pipeline trains no model.  It writes a seeded Zipfian
corpus of random words (`zipf_corpus`, over 5000 word types per side),
then runs `preprocess` with 30 merges, `evaluate` of two noisy copies of
the reference and `compare --n 200` of the two.

Every file a pipeline writes is compared byte for byte, the lines each
`translate`, `evaluate` and `compare` prints included, except trainlogs,
whose loss and dev-BLEU columns are compared and whose seconds are not.
For each working-tree run, prints each artifact that differs from
BASE_REV's, then "N of M identical"; exits 1 if anything differs.  About
a minute per desk run and a few seconds per many-types run on a desk
machine; the extracted tree and the output directories are removed
afterwards.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(*argv, printed=None) -> None:
    """Run one docnmt command and write what it prints to the file
    `printed`, if given; SystemExit if it fails."""
    from docnmt import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    if printed:
        Path(printed).write_text(out.getvalue(), encoding="utf-8")


def pipeline(all_on_worker: bool = False) -> None:
    """Run the desk pipeline in the current directory; `all_on_worker`
    sends every product to the worker thread."""
    from docnmt import tensor
    from docnmt.model import VARIANTS

    if all_on_worker:
        if not hasattr(tensor, "WORKER_MIN_MACS"):
            raise SystemExit("docnmt.tensor has no WORKER_MIN_MACS: "
                             "cannot send every product to the worker")
        tensor.WORKER_MIN_MACS = 0
    for name, seed, docs in (("train", 11, 1000), ("dev", 12, 60),
                             ("test", 13, 120)):
        run("synth", "--mode", "trg-informative", "--seed", seed,
            "--docs", docs, "--name", name, "--out-dir", "data")
    run("preprocess", "--out-dir", "prep", "--name", "corpus",
        "--merges", 200, *(f"--{tag}-{side}=data/{tag}.{side}"
                           for tag in ("train", "dev", "test")
                           for side in ("src", "trg")))
    vocabs = ("--src-vocab", "prep/corpus.vocab.src",
              "--trg-vocab", "prep/corpus.vocab.trg")
    common = ("--train-src", "prep/corpus.train.src",
              "--train-trg", "prep/corpus.train.trg",
              "--dev-src", "prep/corpus.dev.src",
              "--dev-trg", "prep/corpus.dev.trg",
              *vocabs, "--seed", 5, "--epochs", 4)
    run("train-baseline", *common, "--out", "models/baseline")
    for variant in VARIANTS[1:]:
        run("finetune", *common, "--variant", variant,
            "--baseline", "models/baseline", "--out", f"models/{variant}")
    Path("hyps").mkdir()
    for variant in VARIANTS:
        for mode, extra in (("greedy", ()),
                            ("gold", ("--gold-context",
                                      "prep/corpus.test.trg")),
                            ("beam5", ("--beam", 5))):
            out = f"hyps/{variant}.{mode}"
            run("translate", "--ckpt", f"models/{variant}",
                "--src", "prep/corpus.test.src", *vocabs, *extra,
                "--out", out, printed=f"{out}.printed")


def zipf_corpus(out_dir: Path, seed: int = 17, lexicon: int = 9000,
                sentences: int = 4000) -> None:
    """Write `train.src`, `train.trg`, `refs.trg` and two noisy copies of
    it, `sys1.trg` and `sys2.trg`, to `out_dir`: documents of 5 sentences
    of 5-15 words.  Each side has `lexicon` random words of 3-10 letters
    and draws word k with weight 1/(k+1)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, lexicon + 1)
    weights /= weights.sum()

    def words() -> list[str]:
        found: dict[str, None] = {}
        while len(found) < lexicon:
            letters = rng.integers(97, 123, size=rng.integers(3, 11))
            found["".join(map(chr, letters))] = None
        return list(found)

    def draw(n: int) -> list[int]:
        return rng.choice(lexicon, size=n, p=weights).tolist()

    def sample(lex: list[str]) -> list[list[str]]:
        lengths = rng.integers(5, 16, size=sentences).tolist()
        flat = iter(draw(sum(lengths)))
        return [[lex[next(flat)] for _ in range(n)] for n in lengths]

    def write(name: str, sents: list[list[str]]) -> None:
        docs = ("".join(" ".join(s) + "\n" for s in sents[i:i + 5])
                for i in range(0, len(sents), 5))
        (out_dir / name).write_text("\n".join(docs), encoding="utf-8")

    out_dir.mkdir()
    src, trg = words(), words()
    write("train.src", sample(src))
    write("train.trg", sample(trg))
    refs = sample(trg)
    write("refs.trg", refs)
    for name, rate in (("sys1.trg", 0.1), ("sys2.trg", 0.3)):
        fresh = iter(draw(sum(map(len, refs))))
        write(name, [[trg[next(fresh)] if rng.random() < rate else w
                      for w in s] for s in refs])


def many_types_pipeline() -> None:
    """Run the no-model pipeline in the current directory."""
    zipf_corpus(Path("data"))
    run("preprocess", "--train-src", "data/train.src",
        "--train-trg", "data/train.trg", "--merges", 30,
        "--out-dir", "prep", "--name", "many")
    Path("scores").mkdir()
    for hyp in ("sys1", "sys2"):
        run("evaluate", "--hyp", f"data/{hyp}.trg", "--ref", "data/refs.trg",
            "--out", f"scores/{hyp}.bleu", printed=f"scores/{hyp}.printed")
    run("compare", "data/sys1.trg", "data/sys2.trg", "data/refs.trg",
        "--n", 200, "--seed", 3, "--out", "scores/compare",
        printed="scores/compare.printed")


def artifacts(out_dir: Path) -> dict[str, bytes]:
    """Every file under `out_dir` by relative path; trainlogs without
    their seconds column."""
    found = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.suffix == ".trainlog":
                data = b"".join(b"\t".join(line.split(b"\t")[:3]) + b"\n"
                                for line in data.splitlines())
            found[str(path.relative_to(out_dir))] = data
    return found


def run_tree(src: Path, out_dir: Path, *flags: str) -> dict[str, bytes]:
    out_dir.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--pipeline", *flags], cwd=out_dir, env=env, check=True)
    return artifacts(out_dir)


def compare(label: str, base: dict[str, bytes],
            change: dict[str, bytes]) -> bool:
    """Print what differs and "N of M identical"; True if nothing does."""
    names = sorted(set(base) | set(change))
    differ = [name for name in names if base.get(name) != change.get(name)]
    for name in differ:
        print(f"{label}: differs: {name}")
    print(f"{label}: {len(names) - len(differ)} of {len(names)} identical")
    return not differ


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py BASE_REV", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", argv[0], "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="same_outputs.",
                                 dir=ROOT / ".bench_work"))
    try:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(work / "base", filter="data")
        base_src = work / "base" / "src"
        desk = run_tree(base_src, work / "base_out")
        types = run_tree(base_src, work / "base_types", "--many-types")
        runs = [("as is", desk, run_tree(ROOT / "src", work / "change_out")),
                ("every product on the worker", desk, run_tree(
                    ROOT / "src", work / "worker_out", "--all-on-worker")),
                ("many word types", types, run_tree(
                    ROOT / "src", work / "change_types", "--many-types"))]
    finally:
        shutil.rmtree(work)
    same = [compare(label, base, change) for label, base, change in runs]
    return 0 if all(same) else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--pipeline", "--many-types"]:
        many_types_pipeline()
    elif sys.argv[1:2] == ["--pipeline"]:
        pipeline(sys.argv[2:] == ["--all-on-worker"])
    else:
        sys.exit(main(sys.argv[1:]))
