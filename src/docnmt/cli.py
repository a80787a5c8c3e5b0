"""Command-line interface for the full experiment lifecycle.

Subcommands: synth, preprocess, train-baseline, finetune, translate,
evaluate, compare, params; each takes only the flags it reads.  Values
resolve as CLI flag > config file > desk-scale default; config files are
flat `key = value` text over `DESK_PROFILE` keys.  Every
artifact-producing command writes a JSON manifest (command, settings,
seed, input hashes, output paths) next to its primary output, with no
timestamps, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import re
import statistics
import sys
from pathlib import Path

from . import bpe as B
from . import corpus as C
from . import evaluation as E
from . import tensor as T
from .model import (ModelConfig, TranslationModel, VARIANTS, load_checkpoint,
                    param_count, save_checkpoint)
from .training import TrainConfig, init_from_baseline, train_model

DESK_PROFILE = {
    "emb_dim": 32,
    "hidden_dim": 32,
    "merges": 200,
    "batch_docs": 16,
    "epochs": 10,
    "lr": 0.1,
    "dropout": 0.2,
    "grad_clip": 5.0,
    "max_len": 100,
    "beam": 1,
    "n_resamples": 1000,
}


def read_config(path) -> dict:
    """A config file's settings, typed as their `DESK_PROFILE` defaults."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}, line {number}: no '=' in {line!r}")
            if key not in DESK_PROFILE:
                raise ValueError(f"{path}, line {number}: unknown key {key!r}")
            kind = type(DESK_PROFILE[key])
            try:
                values[key] = kind(value)
            except ValueError:
                raise ValueError(f"{path}, line {number}: {key} needs "
                                 f"{kind.__name__}, got {value!r}") from None
    return values


def resolve_profile(config_path=None) -> dict:
    """`DESK_PROFILE` with a config file's settings over it."""
    return {**DESK_PROFILE, **(read_config(config_path) if config_path else {})}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(primary, command: str, args: argparse.Namespace, seed,
                   inputs: list, outputs: list) -> None:
    """Settings are the subcommand's arguments, resolved (see `run`)."""
    doc = {
        "command": command,
        "settings": {k: str(v) for k, v in sorted(vars(args).items())
                     if k != "fn" and v is not None},
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in sorted(str(x) for x in inputs)},
        "outputs": sorted(str(p) for p in outputs),
    }
    with open(f"{primary}.manifest.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_vocabs(args) -> tuple[B.Vocabulary, B.Vocabulary]:
    return B.Vocabulary.load(args.src_vocab), B.Vocabulary.load(args.trg_vocab)


def _nonempty(docs: list, path, what: str = "documents") -> list:
    """`docs` as read from `path`; a ValueError naming the file if none."""
    if not docs:
        raise ValueError(f"{path}: no {what}")
    return docs


def _flatten(blocks):
    return [sent for block in blocks for sent in block]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = C.SynthConfig(mode=args.mode, num_documents=args.docs,
                        sentences_per_doc=(args.min_sents, args.max_sents),
                        num_fillers=args.fillers, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    docs, metas = C.generate_synthetic(cfg)
    src_path = out_dir / f"{args.name}.src"
    trg_path = out_dir / f"{args.name}.trg"
    meta_path = out_dir / f"{args.name}.meta"
    C.save_documents(docs, src_path, trg_path)
    C.save_meta(metas, meta_path)
    write_manifest(src_path, "synth", args, args.seed, [],
                   [src_path, trg_path, meta_path])
    print(f"wrote {len(docs)} documents to {src_path} / {trg_path}")
    return 0


def _reject_bpe_marker(path) -> None:
    """Raise on a raw token ending in the BPE marker: de-segmenting would
    glue it to the next token, or drop it."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    # `\s` is the whitespace str.split() splits on
    found = re.search(re.escape(B.CONT) + r"(?!\S)", text)
    if found:
        number = text.count("\n", 0, found.start()) + 1
        line = text.split("\n")[number - 1]
        token = next(t for t in line.split() if t.endswith(B.CONT))
        raise ValueError(f"{path}, line {number}: token {token!r} "
                         f"ends in the BPE marker {B.CONT!r}")


@contextlib.contextmanager
def _without_cycle_collection():
    """Pause the cyclic garbage collector, if it runs.  Preprocessing
    allocates a list per sentence and a tuple per word type and forms no
    reference cycles, so each pass would only re-traverse the growing
    corpus (see the README's design notes)."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@_without_cycle_collection()
def cmd_preprocess(args) -> int:
    if args.merges < 0:
        raise ValueError(f"--merges must be >= 0, got {args.merges}")
    if args.max_len < 1:
        raise ValueError(f"--max-len must be >= 1, got {args.max_len}")
    extras = {"dev": (args.dev_src, args.dev_trg),
              "test": (args.test_src, args.test_trg)}
    for tag, pair in extras.items():
        if pair.count(None) == 1:
            raise ValueError(f"--{tag}-src and --{tag}-trg go together")
    for path in (args.train_src, args.train_trg, args.dev_src, args.dev_trg,
                 args.test_src, args.test_trg):
        if path:
            _reject_bpe_marker(path)
    docs = _nonempty(C.load_documents(args.train_src, args.train_trg),
                     args.train_src)
    extra_docs = {tag: _nonempty(C.load_documents(*pair), pair[0])
                  for tag, pair in extras.items() if pair[0]}
    kept = C.filter_documents(docs, max_len=args.max_len)
    if not kept:
        raise ValueError(f"{args.train_src} / {args.train_trg}: every "
                         f"document has a sentence longer than --max-len "
                         f"{args.max_len}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src_model = B.learn_bpe([s for d in kept for s in d.src_sentences],
                            args.merges)
    trg_model = B.learn_bpe([t for d in kept for t in d.trg_sentences],
                            args.merges)
    train_seg = C.segment_documents(kept, src_model, trg_model)
    src_vocab = B.build_vocab([s for d in train_seg for s in d.src_sentences])
    trg_vocab = B.build_vocab([t for d in train_seg for t in d.trg_sentences])

    name = args.name
    outputs = []

    def emit(tag, docs_seg):
        sp = out_dir / f"{name}.{tag}.src"
        tp = out_dir / f"{name}.{tag}.trg"
        C.save_documents(docs_seg, sp, tp)
        outputs.extend([sp, tp])

    emit("train", train_seg)
    inputs = [args.train_src, args.train_trg]
    for tag, extra in extra_docs.items():
        emit(tag, C.segment_documents(extra, src_model, trg_model))
        inputs.extend(extras[tag])
    codes_src = out_dir / f"{name}.codes.src"
    codes_trg = out_dir / f"{name}.codes.trg"
    vocab_src = out_dir / f"{name}.vocab.src"
    vocab_trg = out_dir / f"{name}.vocab.trg"
    src_model.save(codes_src)
    trg_model.save(codes_trg)
    src_vocab.save(vocab_src)
    trg_vocab.save(vocab_trg)
    outputs.extend([codes_src, codes_trg, vocab_src, vocab_trg])
    write_manifest(out_dir / f"{name}.train.src", "preprocess", args, None,
                   inputs, outputs)
    print(f"{len(docs)} documents loaded, {len(kept)} kept after length filter")
    print(f"vocabulary sizes: source {len(src_vocab)}, target {len(trg_vocab)}")
    return 0


def _train_seeds(args, command: str, start, inputs: list) -> int:
    """Train one model per seed: checkpoint, trainlog and manifest each,
    then the best dev BLEU per seed (mean +- stdev for several seeds).
    `start(seed, src_vocab, trg_vocab)` returns the model to train."""
    src_vocab, trg_vocab = _load_vocabs(args)
    train_docs = _nonempty(C.load_documents(args.train_src, args.train_trg),
                           args.train_src)
    dev_docs = _nonempty(C.load_documents(args.dev_src, args.dev_trg),
                         args.dev_src)
    seeds = [int(x) for x in args.seed.split(",")]
    scores = {}
    for seed in seeds:
        prefix = args.out if len(seeds) == 1 else f"{args.out}.s{seed}"
        tcfg = TrainConfig(seed=seed, epochs=args.epochs, lr=args.lr,
                           batch_docs=args.batch_docs, grad_clip=args.grad_clip)
        best, log = train_model(start(seed, src_vocab, trg_vocab), train_docs,
                                dev_docs, src_vocab, trg_vocab, tcfg)
        save_checkpoint(best, prefix)
        log.save(f"{prefix}.trainlog")
        write_manifest(prefix, command, args, seed,
                       [args.train_src, args.train_trg, args.dev_src,
                        args.dev_trg, args.src_vocab, args.trg_vocab, *inputs],
                       [f"{prefix}.manifest", f"{prefix}.bin",
                        f"{prefix}.trainlog"])
        scores[seed] = log.records[log.best_epoch - 1].dev_bleu
    for seed, score in scores.items():
        print(f"seed {seed}: best dev BLEU {score:.2f}")
    if len(scores) > 1:
        vals = list(scores.values())
        print(f"mean {statistics.mean(vals):.2f} "
              f"+- {statistics.stdev(vals):.2f} over {len(vals)} runs")
    return 0


def cmd_train_baseline(args) -> int:
    def start(seed, src_vocab, trg_vocab):
        cfg = ModelConfig("baseline", args.emb_dim, args.hidden_dim,
                          len(src_vocab), len(trg_vocab), dropout=args.dropout)
        return TranslationModel(cfg, rng=T.make_rng(seed, 0))
    return _train_seeds(args, "train-baseline", start, [])


def cmd_finetune(args) -> int:
    def start(seed, src_vocab, trg_vocab):
        baseline = load_checkpoint(args.baseline)
        try:
            model = init_from_baseline(baseline, args.variant,
                                       T.make_rng(seed, 3))
        except ValueError as exc:
            raise ValueError(f"--baseline {args.baseline}: {exc}") from None
        # overrides the checkpoint's, through ModelConfig's checks
        model.cfg = dataclasses.replace(model.cfg, dropout=args.dropout)
        return model
    return _train_seeds(args, "finetune", start,
                        [f"{args.baseline}.manifest", f"{args.baseline}.bin"])


def cmd_translate(args) -> int:
    if args.beam < 1:
        raise ValueError(f"--beam must be >= 1, got {args.beam}")
    model = load_checkpoint(args.ckpt)
    src_vocab, trg_vocab = _load_vocabs(args)
    if args.gold_context:
        docs = _nonempty(C.load_documents(args.src, args.gold_context),
                         args.src)
    else:
        docs = [C.Document(f"d{i:05d}", [(sent, []) for sent in block])
                for i, block in enumerate(_nonempty(
                    C.load_blocks(args.src), args.src, "source sentences"))]
    hyps, stats = E.translate_corpus(model, docs, src_vocab, trg_vocab,
                                     beam_size=args.beam,
                                     gold_context=bool(args.gold_context))
    out = Path(args.out)
    C.save_blocks([[B.remove_bpe(sent) for sent in doc] for doc in hyps], out)
    inputs = [args.src, f"{args.ckpt}.manifest", f"{args.ckpt}.bin",
              args.src_vocab, args.trg_vocab]
    if args.gold_context:
        inputs.append(args.gold_context)
    write_manifest(out, "translate", args, None, inputs, [out])
    print(f"translated {len(docs)} documents; context read by sentences: "
          f"{stats.cache_reuses} cached, {stats.teacher_forced} teacher-forced,"
          f" {stats.context_recomputes} recomputed")
    return 0


def cmd_evaluate(args) -> int:
    ref_docs = _nonempty(C.load_blocks(args.ref), args.ref,
                         "reference sentences")
    hyp_docs = C.load_blocks(args.hyp, [len(doc) for doc in ref_docs])
    metas = C.load_meta(args.meta) if args.meta else []
    if args.meta and len(metas) != len(ref_docs):
        raise ValueError(f"{args.meta} has {len(metas)} records, {args.ref} "
                         f"has {len(ref_docs)} documents")
    try:
        slots = E.score_slots(hyp_docs, metas) if args.meta else None
    except ValueError as exc:
        raise ValueError(f"{args.meta}: {exc}") from None
    report = E.bleu(_flatten(hyp_docs), _flatten(ref_docs))
    print(report.pretty())
    records = report.records()
    if slots is not None:
        print(f"slot accuracy {slots.slot_accuracy:.4f} over {slots.n_slots} "
              f"slots; self-consistency {slots.self_consistency:.4f}")
        records += slots.records()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(records)
        write_manifest(args.out, "evaluate", args, None,
                       [args.hyp, args.ref] + ([args.meta] if args.meta else []),
                       [args.out])
    return 0


def cmd_compare(args) -> int:
    if args.n_resamples < 1:
        raise ValueError(f"--n must be >= 1, got {args.n_resamples}")
    ref_docs = _nonempty(C.load_blocks(args.refs), args.refs,
                         "reference sentences")
    lengths = [len(doc) for doc in ref_docs]
    hyps_a = _flatten(C.load_blocks(args.hyp_a, lengths))
    hyps_b = _flatten(C.load_blocks(args.hyp_b, lengths))
    refs = _flatten(ref_docs)
    result = E.bootstrap_significance(hyps_a, hyps_b, refs,
                                      n_resamples=args.n_resamples,
                                      seed=args.seed)
    print(f"BLEU A = {result.bleu_a:.2f}, BLEU B = {result.bleu_b:.2f}")
    print(f"p = {result.p_value:.4f} for 'B better than A' "
          f"({result.n_resamples} resamples, mean delta {result.mean_delta:+.2f})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(f"bleu_a={result.bleu_a:.2f}\n"
                    f"bleu_b={result.bleu_b:.2f}\n" + result.records())
        write_manifest(args.out, "compare", args, args.seed,
                       [args.hyp_a, args.hyp_b, args.refs], [args.out])
    return 0


def cmd_params(args) -> int:
    emb, hidden = args.emb_dim, args.hidden_dim
    if args.src_vocab:
        v_src = len(B.Vocabulary.load(args.src_vocab))
    else:
        v_src = args.src_vocab_size
    if args.trg_vocab:
        v_trg = len(B.Vocabulary.load(args.trg_vocab))
    else:
        v_trg = args.trg_vocab_size
    base = param_count(ModelConfig("baseline", emb, hidden, v_src, v_trg))
    print(f"E={emb} H={hidden} V_src={v_src} V_trg={v_trg}")
    print(f"{'variant':18s} {'parameters':>12s} {'vs baseline':>12s}")
    for variant in VARIANTS:
        n = param_count(ModelConfig(variant, emb, hidden, v_src, v_trg))
        print(f"{variant:18s} {n:12d} {n - base:+12d}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _seed(text: str) -> int:
    """A `--seed` for numpy's generators, which take no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an "
                                         "integer") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _seed_list(text: str) -> str:
    """`--seed 4` or `--seed 1,2,3`, checked and kept as text for manifests.

    A repeated seed is refused: its second run would overwrite the first
    one's checkpoint and leave the summary without a mean.
    """
    seeds = [str(_seed(seed)) for seed in text.split(",")]
    for seed in seeds:
        if seeds.count(seed) > 1:
            raise argparse.ArgumentTypeError(f"seed {seed} is repeated in "
                                             f"'{text}'")
    return ",".join(seeds)


def _add_train_args(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=_seed_list, default="0", help="one seed, or "
                   "comma-separated seeds for per-seed runs and a mean +- stdev")
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-trg", required=True)
    p.add_argument("--dev-src", required=True)
    p.add_argument("--dev-trg", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--trg-vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint path prefix")
    for name in ("epochs", "batch_docs"):
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=None)
    for name in ("lr", "dropout", "grad_clip"):
        p.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docnmt",
        description="document-context NMT experiments at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic context corpus")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--mode", required=True,
                   choices=["trg-informative", "src-informative"])
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--min-sents", type=int, default=2)
    p.add_argument("--max-sents", type=int, default=4)
    p.add_argument("--fillers", type=int, default=12)
    p.add_argument("--name", default="synth")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("preprocess",
                       help="filter, learn and apply BPE, build vocabularies")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-trg", required=True)
    p.add_argument("--dev-src")
    p.add_argument("--dev-trg")
    p.add_argument("--test-src")
    p.add_argument("--test-trg")
    p.add_argument("--merges", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--name", default="corpus")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train-baseline", help="pretrain the baseline variant")
    _add_train_args(p)
    p.add_argument("--emb-dim", type=int, default=None)
    p.add_argument("--hidden-dim", type=int, default=None)
    p.set_defaults(fn=cmd_train_baseline)

    p = sub.add_parser("finetune",
                       help="fine-tune a context variant from a baseline")
    _add_train_args(p)
    p.add_argument("--variant", required=True,
                   choices=[v for v in VARIANTS if v != "baseline"])
    p.add_argument("--baseline", required=True,
                   help="baseline checkpoint path prefix")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("translate", help="translate a segmented source file")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--src", required=True, help="BPE-segmented source documents")
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--trg-vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--gold-context", default=None,
                   help="BPE-segmented gold target file; target-side context "
                        "then comes from gold previous sentences")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("evaluate", help="corpus BLEU (and slot metrics)")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--meta", default=None,
                   help="synthetic metadata for ambiguous-slot accuracy")
    p.add_argument("--out", default=None, help="write key=value records here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("compare",
                       help="paired bootstrap significance of B over A")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("hyp_a")
    p.add_argument("hyp_b")
    p.add_argument("refs")
    p.add_argument("--n", dest="n_resamples", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("params", help="parameter counts for all six variants")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--emb-dim", type=int, default=None)
    p.add_argument("--hidden-dim", type=int, default=None)
    p.add_argument("--src-vocab", default=None)
    p.add_argument("--trg-vocab", default=None)
    p.add_argument("--src-vocab-size", type=int, default=500)
    p.add_argument("--trg-vocab-size", type=int, default=500)
    p.set_defaults(fn=cmd_params)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # flag > config file > desk default, for each setting this subcommand has
    for name, value in resolve_profile(getattr(args, "config", None)).items():
        if hasattr(args, name) and getattr(args, name) is None:
            setattr(args, name, value)
    return args.fn(args)


def main() -> None:
    try:
        sys.exit(run())
    except BrokenPipeError:
        sys.exit(1)
    except Exception as exc:  # runtime failure -> exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
