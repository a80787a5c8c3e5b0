"""Check that the working tree trains and decodes exactly as a base
revision does.

    python tools/same_outputs.py BASE_REV

Extracts BASE_REV's `src/` under `.bench_work/` with `git archive` and
runs one desk pipeline with BASE_REV's `src/` and two with the working
tree's: as it is, and with every product on docnmt's worker thread
(`tensor.WORKER_MIN_MACS` set to 0 inside that run, which fails if the
name is gone), since desk-size products never reach the worker.  Each
run is a fresh process with one BLAS thread, in its own output
directory and with relative paths, so manifests compare too.  The
pipeline: trg-informative corpora
from synth seeds 11/12/13 (1000/60/120 documents), 200 BPE merges, a
baseline and every context variant trained for 4 epochs with seed 5,
then greedy, `--gold-context` and `--beam 5` translations of the test
set by all six models.

Every file the pipeline writes is compared byte for byte, the lines each
`translate` prints (its decode counters) included, except trainlogs,
whose loss and dev-BLEU columns are compared and whose seconds are not.
For each working-tree run, prints each artifact that differs from
BASE_REV's, then "N of M identical"; exits 1 if anything differs.  About
a minute per run on a desk machine; the extracted tree and the output
directories are removed afterwards.
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


def pipeline(all_on_worker: bool = False) -> None:
    """Run the desk pipeline in the current directory; `all_on_worker`
    sends every product to the worker thread."""
    from docnmt import cli, tensor
    from docnmt.model import VARIANTS

    if all_on_worker:
        if not hasattr(tensor, "WORKER_MIN_MACS"):
            raise SystemExit("docnmt.tensor has no WORKER_MIN_MACS: "
                             "cannot send every product to the worker")
        tensor.WORKER_MIN_MACS = 0

    def run(*argv, printed=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code}")
        if printed:
            Path(printed).write_text(out.getvalue(), encoding="utf-8")

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
        base = run_tree(work / "base" / "src", work / "base_out")
        runs = {"as is": run_tree(ROOT / "src", work / "change_out"),
                "every product on the worker": run_tree(
                    ROOT / "src", work / "worker_out", "--all-on-worker")}
    finally:
        shutil.rmtree(work)
    same = [compare(label, base, change) for label, change in runs.items()]
    return 0 if all(same) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--pipeline"]:
        pipeline(sys.argv[2:] == ["--all-on-worker"])
    else:
        sys.exit(main(sys.argv[1:]))
