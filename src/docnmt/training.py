"""One training loop for both phases: baseline pretraining and context
fine-tuning.

`train_model` trains the model it is handed: a fresh baseline seeded with
`T.make_rng(seed, 0)`, or a context variant that `init_from_baseline`
starts from a pretrained baseline, its new context weights drawn from
`T.make_rng(seed, 3)`.  Dropout is a model setting (`ModelConfig.dropout`).

Each batch is one teacher-forced pass over all its sentences, one row
each (`corpus.flat_batch`): the decoder never reads attention, so a
sentence depends on the one before it only through values computed from
gold text, and each row reads its context from the row of its
document's previous sentence.  The loss is the mean NLL over the batch's
target tokens; one backward pass and one AdaGrad step, after
global-norm clipping, follow per batch.  The best epoch is chosen by dev
BLEU, decoded greedily with gold target-side context for the variants
that need one.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import bpe as B
from . import corpus as C
from . import evaluation as E
from . import tensor as T
from .bpe import Vocabulary
from .model import TranslationModel, parameter_shapes, _init_param


class TrainingDiverged(RuntimeError):
    """Raised when the loss or the gradient stops being finite."""


@dataclass
class TrainConfig:
    epochs: int = 30
    lr: float = 0.01
    batch_docs: int = 128
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_docs < 1:
            raise ValueError(f"batch_docs must be >= 1, got {self.batch_docs}")
        if not self.grad_clip > 0:      # inf turns clipping off, NaN fails
            raise ValueError("grad_clip must be positive, got "
                             f"{self.grad_clip}")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    dev_bleu: float
    seconds: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    @property
    def best_epoch(self) -> int:
        """1-based epoch with the highest dev BLEU; ties go to the earliest."""
        if not self.records:
            raise ValueError("empty training log")
        scores = [r.dev_bleu for r in self.records]
        return int(np.argmax(scores)) + 1

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for r in self.records:
                f.write(f"{r.epoch}\t{r.loss:.6f}\t{r.dev_bleu:.4f}\t{r.seconds:.3f}\n")


def _dev_bleu(model, dev_docs, src_vocab, trg_vocab) -> float:
    """Greedy-decode the dev set and score BLEU on de-segmented text.

    Target-side context comes from the gold previous sentence, so epoch
    selection measures how well the context mechanism is being used rather
    than the model's own first-sentence coin flips.
    """
    hyps, _ = E.translate_corpus(model, dev_docs, src_vocab, trg_vocab,
                                 gold_context=True)
    hyp_sents, ref_sents = [], []
    for doc, hyp_doc in zip(dev_docs, hyps):
        for (src, trg), hyp in zip(doc.pairs, hyp_doc):
            hyp_sents.append(B.remove_bpe(hyp))
            ref_sents.append(B.remove_bpe(trg))
    return E.bleu(hyp_sents, ref_sents).bleu


def train_model(model: TranslationModel, train_docs: Sequence[C.Document],
                dev_docs: Sequence[C.Document], src_vocab: Vocabulary,
                trg_vocab: Vocabulary, cfg: TrainConfig,
                ) -> tuple[TranslationModel, TrainLog]:
    """Train in place; returns (best-dev model, per-epoch log)."""
    E.check_vocabularies(model, src_vocab, trg_vocab)
    params = model.param_list()
    opt = T.AdaGrad(params, lr=cfg.lr)
    shuffle_rng = T.make_rng(cfg.seed, 1)
    dropout_rng = T.make_rng(cfg.seed, 2)
    log = TrainLog()
    best_params: dict[str, np.ndarray] = {}
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        batches = C.make_batches(train_docs, src_vocab, trg_vocab,
                                 max_docs=cfg.batch_docs,
                                 rng=shuffle_rng)
        epoch_nll, epoch_tokens = 0.0, 0.0
        for b_idx, rows in enumerate(batches):
            opt.zero_grad()
            loss, _, _, ntok = model.forward_loss(rows, rng=dropout_rng)
            if not np.isfinite(loss.data):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}")
            T.backward(loss)
            epoch_nll += float(loss.data) * ntok
            epoch_tokens += ntok
            norm = T.clip_global_norm(params, cfg.grad_clip)
            if not math.isfinite(norm):
                raise TrainingDiverged(
                    f"non-finite gradient norm at epoch {epoch}, batch {b_idx}")
            opt.step()
        dev = _dev_bleu(model, dev_docs, src_vocab, trg_vocab)
        log.records.append(EpochRecord(
            epoch, epoch_nll / max(epoch_tokens, 1.0), dev,
            time.perf_counter() - started))
        if log.best_epoch == epoch:
            best_params = {n: p.data.copy() for n, p in model.params.items()}
    best = TranslationModel(
        model.cfg,
        params={n: T.Tensor(a, requires_grad=True) for n, a in best_params.items()},
        dtype=model.dtype)
    return best, log


def init_from_baseline(baseline: TranslationModel, variant: str,
                       rng: np.random.Generator) -> TranslationModel:
    """Start a context variant from baseline weights.

    Shared weights are copied; the context block of the output projection
    is zero so the new model initially reproduces the baseline exactly;
    separated variants' context LSTM starts from fresh random weights.
    """
    if baseline.cfg.variant != "baseline" or variant == "baseline":
        raise ValueError(f"starts a context variant from a baseline model, "
                         f"not {variant} from a {baseline.cfg.variant} model")
    cfg = dataclasses.replace(baseline.cfg, variant=variant)
    h = cfg.hidden_dim
    params: dict[str, T.Tensor] = {}
    for name, shape in parameter_shapes(cfg).items():
        if name == "attn_out":
            data = np.zeros(shape, dtype=baseline.dtype)
            data[:2 * h] = baseline.params["attn_out"].data
            params[name] = T.Tensor(data, requires_grad=True)
        elif name.startswith("ctx_"):
            params[name] = _init_param(name, shape, rng, baseline.dtype)
        else:
            params[name] = T.Tensor(baseline.params[name].data.copy(),
                                    requires_grad=True)
    return TranslationModel(cfg, params=params, dtype=baseline.dtype)
