"""Span tracing for the traced benchmark run, installed from outside docnmt.

`Tracer.install()` replaces public functions and methods of the docnmt
modules with wrappers that time each call.  Module-level functions are
replaced in every docnmt module that holds the same object, so names
imported with `from .model import load_checkpoint` are traced too.
`Tracer.uninstall()` puts the originals back.

Each call of a traced name records its duration and its self time (the
duration minus the time covered by traced calls it made).  Calls above
the tensor layer are also kept as spans (name, start, end, parent span)
and written out by `write_spans`; the tensor ops run tens of thousands of
times per epoch, so for them only the totals and call counts are kept.
The backward closure of a fused op runs inside `tensor.backward`, so its
time is part of `tensor.backward_s`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = [
    ("cli", "cmd_synth", "cli.synth"),
    ("cli", "cmd_preprocess", "cli.preprocess"),
    ("cli", "cmd_train_baseline", "cli.train_baseline"),
    ("cli", "cmd_finetune", "cli.finetune"),
    ("cli", "cmd_translate", "cli.translate"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
    ("cli", "cmd_compare", "cli.compare"),
    ("corpus", "generate_synthetic", "corpus.generate_synthetic"),
    ("corpus", "load_documents", "corpus.load_documents"),
    ("corpus", "make_batches", "corpus.make_batches"),
    ("bpe", "learn_bpe", "bpe.learn_bpe"),
    ("bpe", "apply_bpe", "bpe.segment"),
    ("bpe", "build_vocab", "bpe.build_vocab"),
    ("tensor", "lstm_cell", "tensor.lstm_cell"),
    ("tensor", "dot_attention", "tensor.dot_attention"),
    ("tensor", "matmul", "tensor.matmul"),
    ("tensor", "softmax", "tensor.softmax"),
    ("tensor", "cross_entropy", "tensor.cross_entropy"),
    ("tensor", "backward", "tensor.backward"),
    ("tensor", "clip_global_norm", "tensor.clip_global_norm"),
    ("tensor", "AdaGrad.step", "tensor.adagrad_step"),
    ("model", "TranslationModel.encode", "model.encode"),
    ("model", "TranslationModel.forward_loss", "model.forward_loss"),
    ("model", "TranslationModel.decode_step", "model.decode_step"),
    ("model", "TranslationModel.context_states", "model.context_states"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("training", "train_model", "training.train_model"),
    ("training", "_dev_bleu", "training.dev_decode"),
    ("evaluation", "translate_corpus", "evaluation.translate"),
    ("evaluation", "bleu", "evaluation.bleu"),
    ("evaluation", "bootstrap_significance", "evaluation.bootstrap"),
    ("evaluation", "score_slots", "evaluation.score_slots"),
]

# Spans of these are aggregated only (see the module docstring).
AGGREGATED = {"tensor.lstm_cell", "tensor.dot_attention", "tensor.matmul",
              "tensor.softmax", "tensor.cross_entropy", "tensor.adagrad_step",
              "bpe.segment", "model.decode_step"}


def _translate_mode(kwargs) -> str:
    if kwargs.get("beam_size", 1) > 1:
        return "beam"
    return "gold" if kwargs.get("gold_context") else "greedy"


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()   # work counts, e.g. tokens
        self.spans: list[tuple[int, str, float, float, int]] = []
        # Open frames: [span id or -1, time covered by traced children].
        self._stack: list[list] = [[-1, 0.0]]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1]
        frame = [-1, 0.0]
        if name not in AGGREGATED:
            frame[0] = self._next_id
            self._next_id += 1
        self._stack.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            self._stack.pop()
            duration = end - start
            parent[1] += duration
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if frame[0] >= 0:
                self.spans.append((frame[0], name, start, end, parent[0]))

    def _wrapper(self, name, fn):
        tracer = self
        if name == "evaluation.translate":
            def wrapper(model, docs, *args, **kwargs):
                mode = _translate_mode(kwargs)
                key = f"{mode}.{model.cfg.variant}"
                tracer.counts[f"sentences.{key}"] += sum(len(d) for d in docs)
                before = tracer.total_s[f"evaluation.{mode}"]
                out = tracer._call(f"evaluation.{mode}", fn,
                                   (model, docs) + args, kwargs)
                tracer.counts[f"seconds.{key}"] += (
                    tracer.total_s[f"evaluation.{mode}"] - before)
                return out
        elif name == "training.train_model":
            def wrapper(model, train_docs, *args, **kwargs):
                cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
                tokens = cfg.epochs * sum(len(t) + 1 for d in train_docs
                                          for t in d.trg_sentences)
                variant = model.cfg.variant
                tracer.counts["training.tokens"] += tokens
                tracer.counts[f"tokens.{variant}"] += tokens
                before = tracer.total_s[name]
                out = tracer._call(name, fn, (model, train_docs) + args, kwargs)
                tracer.counts[f"seconds.{variant}"] += \
                    tracer.total_s[name] - before
                return out
        elif name == "tensor.backward":
            graph = sys.modules["docnmt.tensor"].active_graph

            def wrapper(*args, **kwargs):
                tracer.counts["tensor.graph_nodes"] += len(graph())
                return tracer._call(name, fn, args, kwargs)
        elif name == "bpe.learn_bpe":
            def wrapper(*args, **kwargs):
                model = tracer._call(name, fn, args, kwargs)
                tracer.counts["bpe.merges_learned"] += model.num_merges
                return model
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "docnmt" or n.startswith("docnmt.")]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[f"docnmt.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON line per kept span, then one line of call counts."""
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent in sorted(self.spans):
                f.write(json.dumps({"id": span_id, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent}) + "\n")
            f.write(json.dumps({"calls": dict(self.calls),
                                "counts": dict(self.counts)}) + "\n")
