"""Command-line interface for the full experiment lifecycle.

Subcommands: synth, preprocess, train-baseline, finetune, translate,
evaluate, compare, params.  Values resolve as CLI flag > config file >
desk-scale default; config files are flat `key = value` text.  Every
artifact-producing command writes a JSON manifest (command, settings,
seed, input hashes, output paths) next to its primary output, with no
timestamps, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from . import bpe as B
from . import corpus as C
from . import evaluation as E
from .model import (ModelConfig, VARIANTS, load_checkpoint, param_count,
                    save_checkpoint)
from .training import TrainConfig, fine_tune_context, pretrain_baseline

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


def read_config(path) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class Settings:
    """Flag > config file > desk default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = read_config(args.config) if getattr(args, "config", None) \
            else {}
        self.resolved: dict = {}

    def get(self, name, cast=None):
        flag = getattr(self.args, name, None)
        if flag is not None:
            value = flag
        elif name in self.config:
            value = self.config[name]
        elif name in DESK_PROFILE:
            value = DESK_PROFILE[name]
        else:
            raise KeyError(f"no value for setting {name}")
        if cast is None and name in DESK_PROFILE:
            cast = type(DESK_PROFILE[name])
        if cast is not None:
            value = cast(value)
        self.resolved[name] = value
        return value


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _args_snapshot(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "fn" and v is not None}


def write_manifest(primary, command: str, settings: dict, seed,
                   inputs: list, outputs: list) -> None:
    doc = {
        "command": command,
        "settings": {k: str(v) for k, v in sorted(settings.items())},
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in sorted(str(x) for x in inputs)},
        "outputs": sorted(str(p) for p in outputs),
    }
    with open(f"{primary}.manifest.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_vocabs(args) -> tuple[B.Vocabulary, B.Vocabulary]:
    return B.Vocabulary.load(args.src_vocab), B.Vocabulary.load(args.trg_vocab)


def _flatten(blocks):
    return [sent for block in blocks for sent in block]


def _write_doc_file(path, docs_sentences) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, doc in enumerate(docs_sentences):
            if i:
                f.write("\n")
            for sent in doc:
                f.write(" ".join(sent) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = C.SynthConfig(mode=args.mode, num_documents=args.docs,
                        sentences_per_doc=(args.min_sents, args.max_sents),
                        num_fillers=args.fillers, seed=args.seed)
    docs, metas = C.generate_synthetic(cfg)
    src_path = out_dir / f"{args.name}.src"
    trg_path = out_dir / f"{args.name}.trg"
    meta_path = out_dir / f"{args.name}.meta"
    C.save_documents(docs, src_path, trg_path)
    C.save_meta(metas, meta_path)
    write_manifest(src_path, "synth", _args_snapshot(args), args.seed, [],
                   [src_path, trg_path, meta_path])
    print(f"wrote {len(docs)} documents to {src_path} / {trg_path}")
    return 0


def cmd_preprocess(args) -> int:
    s = Settings(args)
    merges = s.get("merges")
    max_len = s.get("max_len")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    docs = C.load_documents(args.train_src, args.train_trg)
    kept = C.filter_documents(docs, max_len=max_len)
    src_model = B.learn_bpe([s_ for d in kept for s_ in d.src_sentences], merges)
    trg_model = B.learn_bpe([t for d in kept for t in d.trg_sentences], merges)
    train_seg = C.segment_documents(kept, src_model, trg_model)
    src_vocab = B.build_vocab([s_ for d in train_seg for s_ in d.src_sentences])
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
    for tag in ("dev", "test"):
        src_arg = getattr(args, f"{tag}_src")
        trg_arg = getattr(args, f"{tag}_trg")
        if src_arg and trg_arg:
            extra = C.load_documents(src_arg, trg_arg)
            emit(tag, C.segment_documents(extra, src_model, trg_model))
            inputs.extend([src_arg, trg_arg])
    codes_src = out_dir / f"{name}.codes.src"
    codes_trg = out_dir / f"{name}.codes.trg"
    vocab_src = out_dir / f"{name}.vocab.src"
    vocab_trg = out_dir / f"{name}.vocab.trg"
    src_model.save(codes_src)
    trg_model.save(codes_trg)
    src_vocab.save(vocab_src)
    trg_vocab.save(vocab_trg)
    outputs.extend([codes_src, codes_trg, vocab_src, vocab_trg])
    write_manifest(out_dir / f"{name}.train.src", "preprocess",
                   {**_args_snapshot(args), **s.resolved}, None, inputs, outputs)
    print(f"{len(docs)} documents loaded, {len(kept)} kept after length filter")
    print(f"vocabulary sizes: source {len(src_vocab)}, target {len(trg_vocab)}")
    return 0


def _train_common(args, s: Settings):
    src_vocab, trg_vocab = _load_vocabs(args)
    train_docs = C.load_documents(args.train_src, args.train_trg)
    dev_docs = C.load_documents(args.dev_src, args.dev_trg)
    seeds_arg = args.seeds if args.seeds is not None else str(args.seed)
    seeds = [int(x) for x in seeds_arg.split(",")]
    tcfg_base = dict(
        epochs=s.get("epochs"), lr=s.get("lr"), dropout=s.get("dropout"),
        max_docs_per_batch=s.get("batch_docs"),
        grad_clip_norm=s.get("grad_clip"))
    return src_vocab, trg_vocab, train_docs, dev_docs, seeds, tcfg_base


def _report_seed_scores(scores: dict[int, float]) -> None:
    for seed, score in scores.items():
        print(f"seed {seed}: best dev BLEU {score:.2f}")
    if len(scores) > 1:
        vals = list(scores.values())
        print(f"mean {statistics.mean(vals):.2f} "
              f"+- {statistics.stdev(vals):.2f} over {len(vals)} runs")


def cmd_train_baseline(args) -> int:
    s = Settings(args)
    src_vocab, trg_vocab, train_docs, dev_docs, seeds, tcfg_base = \
        _train_common(args, s)
    mcfg_args = dict(emb_dim=s.get("emb_dim"), hidden_dim=s.get("hidden_dim"),
                     src_vocab_size=len(src_vocab),
                     trg_vocab_size=len(trg_vocab), dropout=s.get("dropout"))
    scores = {}
    for seed in seeds:
        prefix = args.out if len(seeds) == 1 else f"{args.out}.s{seed}"
        model_cfg = ModelConfig(variant="baseline", **mcfg_args)
        tcfg = TrainConfig(seed=seed, **tcfg_base)
        best, log = pretrain_baseline(train_docs, dev_docs, src_vocab,
                                      trg_vocab, model_cfg, tcfg)
        save_checkpoint(best, prefix)
        log.save(f"{prefix}.trainlog")
        write_manifest(prefix, "train-baseline",
                       {**_args_snapshot(args), **s.resolved}, seed,
                       [args.train_src, args.train_trg, args.dev_src,
                        args.dev_trg, args.src_vocab, args.trg_vocab],
                       [f"{prefix}.manifest", f"{prefix}.bin",
                        f"{prefix}.trainlog"])
        scores[seed] = log.records[log.best_epoch - 1].dev_bleu
    _report_seed_scores(scores)
    return 0


def cmd_finetune(args) -> int:
    s = Settings(args)
    src_vocab, trg_vocab, train_docs, dev_docs, seeds, tcfg_base = \
        _train_common(args, s)
    scores = {}
    for seed in seeds:
        prefix = args.out if len(seeds) == 1 else f"{args.out}.s{seed}"
        baseline = load_checkpoint(args.baseline)
        tcfg = TrainConfig(seed=seed, **tcfg_base)
        best, log = fine_tune_context(baseline, args.variant, train_docs,
                                      dev_docs, src_vocab, trg_vocab, tcfg)
        save_checkpoint(best, prefix)
        log.save(f"{prefix}.trainlog")
        write_manifest(prefix, "finetune",
                       {**_args_snapshot(args), **s.resolved}, seed,
                       [args.train_src, args.train_trg, args.dev_src,
                        args.dev_trg, args.src_vocab, args.trg_vocab,
                        f"{args.baseline}.manifest", f"{args.baseline}.bin"],
                       [f"{prefix}.manifest", f"{prefix}.bin",
                        f"{prefix}.trainlog"])
        scores[seed] = log.records[log.best_epoch - 1].dev_bleu
    _report_seed_scores(scores)
    return 0


def cmd_translate(args) -> int:
    s = Settings(args)
    beam = s.get("beam")
    model = load_checkpoint(args.ckpt)
    src_vocab, trg_vocab = _load_vocabs(args)
    src_blocks = C.load_blocks(args.src)
    if args.gold_context:
        trg_blocks = C.load_blocks(args.gold_context)
        if len(trg_blocks) != len(src_blocks):
            raise ValueError("gold context file must align with the source")
        for i, (sb, tb) in enumerate(zip(src_blocks, trg_blocks)):
            if len(sb) != len(tb):
                raise ValueError(f"gold context document {i} has {len(tb)} "
                                 f"sentences, the source has {len(sb)}")
        docs = [C.Document(f"d{i:05d}", list(zip(sb, tb)))
                for i, (sb, tb) in enumerate(zip(src_blocks, trg_blocks))]
    else:
        docs = [C.Document(f"d{i:05d}", [(sent, []) for sent in block])
                for i, block in enumerate(src_blocks)]
    hyps, stats = E.translate_corpus(model, docs, src_vocab, trg_vocab,
                                     beam_size=beam,
                                     gold_context=bool(args.gold_context))
    out = Path(args.out)
    _write_doc_file(out, [[E.debpe(sent) for sent in doc] for doc in hyps])
    inputs = [args.src, f"{args.ckpt}.manifest", f"{args.ckpt}.bin",
              args.src_vocab, args.trg_vocab]
    if args.gold_context:
        inputs.append(args.gold_context)
    write_manifest(out, "translate",
                   {**_args_snapshot(args), **s.resolved}, None, inputs, [out])
    print(f"translated {len(docs)} documents; context read by sentences: "
          f"{stats.cache_reuses} cached, {stats.teacher_forced} teacher-forced,"
          f" {stats.context_recomputes} recomputed")
    return 0


def cmd_evaluate(args) -> int:
    hyp_docs = C.load_blocks(args.hyp)
    ref_docs = C.load_blocks(args.ref)
    if len(hyp_docs) != len(ref_docs):
        raise ValueError(f"{len(hyp_docs)} hypothesis documents vs "
                         f"{len(ref_docs)} reference documents")
    report = E.bleu(_flatten(hyp_docs), _flatten(ref_docs))
    print(report.pretty())
    records = report.records()
    if args.meta:
        metas = C.load_meta(args.meta)
        slots = E.score_slots(hyp_docs, metas)
        print(f"slot accuracy {slots.slot_accuracy:.4f} over {slots.n_slots} "
              f"slots; self-consistency {slots.self_consistency:.4f}")
        records += slots.records()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(records)
        write_manifest(args.out, "evaluate", _args_snapshot(args), None,
                       [args.hyp, args.ref] + ([args.meta] if args.meta else []),
                       [args.out])
    return 0


def cmd_compare(args) -> int:
    s = Settings(args)
    n = s.get("n_resamples")
    hyps_a = _flatten(C.load_blocks(args.hyp_a))
    hyps_b = _flatten(C.load_blocks(args.hyp_b))
    refs = _flatten(C.load_blocks(args.refs))
    result = E.bootstrap_significance(hyps_a, hyps_b, refs, n_resamples=n,
                                      seed=args.seed)
    bleu_a = E.bleu(hyps_a, refs).bleu
    bleu_b = E.bleu(hyps_b, refs).bleu
    print(f"BLEU A = {bleu_a:.2f}, BLEU B = {bleu_b:.2f}")
    print(f"p = {result.p_value:.4f} for 'B better than A' "
          f"({result.n_resamples} resamples, mean delta {result.mean_delta:+.2f})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(f"bleu_a={bleu_a:.2f}\nbleu_b={bleu_b:.2f}\n"
                    + result.records())
        write_manifest(args.out, "compare",
                       {**_args_snapshot(args), **s.resolved}, args.seed,
                       [args.hyp_a, args.hyp_b, args.refs], [args.out])
    return 0


def cmd_params(args) -> int:
    s = Settings(args)
    emb = s.get("emb_dim")
    hidden = s.get("hidden_dim")
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


def _add_common(p, out_dir=False):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=0)
    if out_dir:
        p.add_argument("--out-dir", default=".")


def _add_train_args(p):
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-trg", required=True)
    p.add_argument("--dev-src", required=True)
    p.add_argument("--dev-trg", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--trg-vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint path prefix")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seeds; multi-seed runs emit "
                        "per-seed artifacts and a mean +- stdev summary")
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
    _add_common(p, out_dir=True)
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
    _add_common(p, out_dir=True)
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
    _add_common(p)
    _add_train_args(p)
    p.add_argument("--emb-dim", type=int, default=None)
    p.add_argument("--hidden-dim", type=int, default=None)
    p.set_defaults(fn=cmd_train_baseline)

    p = sub.add_parser("finetune",
                       help="fine-tune a context variant from a baseline")
    _add_common(p)
    _add_train_args(p)
    p.add_argument("--variant", required=True,
                   choices=[v for v in VARIANTS if v != "baseline"])
    p.add_argument("--baseline", required=True,
                   help="baseline checkpoint path prefix")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("translate", help="translate a segmented source file")
    _add_common(p)
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
    _add_common(p)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--meta", default=None,
                   help="synthetic metadata for ambiguous-slot accuracy")
    p.add_argument("--out", default=None, help="write key=value records here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("compare",
                       help="paired bootstrap significance of B over A")
    _add_common(p)
    p.add_argument("hyp_a")
    p.add_argument("hyp_b")
    p.add_argument("refs")
    p.add_argument("--n", dest="n_resamples", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("params", help="parameter counts for all six variants")
    _add_common(p)
    p.add_argument("--emb-dim", type=int, default=None)
    p.add_argument("--hidden-dim", type=int, default=None)
    p.add_argument("--src-vocab", default=None)
    p.add_argument("--trg-vocab", default=None)
    p.add_argument("--src-vocab-size", type=int, default=500)
    p.add_argument("--trg-vocab-size", type=int, default=500)
    p.set_defaults(fn=cmd_params)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


def main() -> None:
    try:
        sys.exit(run())
    except BrokenPipeError:
        sys.exit(1)
    except SystemExit:
        raise
    except Exception as exc:  # runtime failure -> exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
