"""Document-aware decoding, corpus BLEU, and bootstrap significance.

Decoding reads the rows training reads: a group of documents is one
`corpus.flat_batch`, encoded once; sentence index i is decoded after
index i - 1 by one beam search over its rows (greedy is beam 1), each row
reading what its previous sentence `leaves`, as in `forward_loss`.  The
target side holds what index i - 1 emitted; with `gold_context=True` it
holds the gold text and one teacher-forced decoder pass over it instead,
which is how the context mechanisms are probed on the synthetic tasks
(the reference choice is unrecoverable from the model's own output).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
import math
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from . import bpe as B
from . import corpus as C
from . import tensor as T
from .bpe import Vocabulary
from .model import CONTEXTS, EncoderStates, TranslationModel

MAX_RATIO = 2.0  # a hypothesis ends by this many times its source length
# sentence pairs whose n-grams are counted together; bounds the transient
# arrays of `pair_stats`
STATS_BLOCK = 1024


@dataclass
class TranslationStats:
    """Sentences translated with context, once per context entry read."""

    cache_reuses: int = 0        # saved encoder or decoder states
    teacher_forced: int = 0      # decoder states recomputed over gold text
    context_recomputes: int = 0  # the separated context LSTM

    def count(self, name: str, gold_context: bool, n: int) -> None:
        """Count n sentences reading the `Previous` field `name`."""
        if name in ("src", "trg"):
            self.context_recomputes += n
        elif name == "dec" and gold_context:
            self.teacher_forced += n
        else:
            self.cache_reuses += n


def _beam_search(model, enc: EncoderStates, context, beam_size: int,
                 keep_states: bool):
    """Beam search over every row of `enc` at once; beam size 1 is greedy.

    Scores are summed log-probabilities.  A hypothesis ends at EOS or at
    `MAX_RATIO` times its row's source length; a row stops with `beam_size`
    ended ones or no live beam and keeps its best (earliest on ties).
    Candidates rank by (score desc, parent slot, token), like argmax.  Also
    returns the top-layer states after each kept token was fed back (a
    length-capped last token never was), collected if `keep_states`.
    """
    limits = np.ceil(MAX_RATIO * enc.mask.sum(axis=1)).astype(np.int64)
    k, n = beam_size, len(limits)
    if k > 1:  # one row per beam slot
        slots = np.repeat(np.arange(n), k)
        enc = enc.take(slots)
        context = [(T.Tensor(s.data[slots]), m[slots]) for s, m in context]
    score = np.full((n, k), -np.inf)
    score[:, 0] = 0.0
    carry, y = model.init_carry(enc), np.full(n * k, B.BOS, dtype=np.int64)
    hidden, vocab = model.cfg.hidden_dim, model.cfg.trg_vocab_size
    toks = np.zeros((n * k, 0), dtype=np.int64)
    states = np.zeros((n * k, 0, hidden), dtype=model.dtype)
    # a beam's candidates that can be taken: its k best continuing tokens
    # and EOS; a lone beam's row stops at its first ended hypothesis
    width = min(k + 1 if k > 1 else 1, vocab)
    beam_at, rows = np.arange(n * k) * vocab, np.arange(n)[:, None]
    origin = np.zeros((n, width), dtype=np.int64)  # parent slot of candidates
    cand_tok = np.empty((n * k, width), dtype=np.int64)
    cand_prob = np.empty((n * k, width))
    upper = np.tri(2 * k, 2 * k, -1).T  # counts a row's earlier candidates
    ended: list[list[tuple]] = [[] for _ in range(n)]
    while score.max() > -np.inf:
        res = model.decode_step(y, carry, enc, context)
        if keep_states and toks.shape[1]:
            states = np.concatenate([states, res.carry[-1][0].data[:, None]],
                                    axis=1)
        # each beam's `width` most probable tokens in argmax order, lowest id
        # first on ties; picked entries are overwritten in place
        probs, flat = res.probs.data, res.probs.data.reshape(-1)
        for j in range(width):
            cand_tok[:, j] = best = probs.argmax(axis=1)
            cand_prob[:, j] = flat[beam_at + best]
            flat[beam_at + best] = -1.0
        total = (score.reshape(-1, 1)
                 + np.log(np.maximum(cand_prob, 1e-300))).reshape(n, -1)
        tok = cand_tok.reshape(n, -1)
        if k > 1:  # merge the row's k lists into its 2k best; stable, so
            # ties stay in (parent slot, token) order
            order = np.argsort(-total, axis=1, kind="stable")[:, :2 * k]
            total, tok, origin = total[rows, order], tok[rows, order], \
                order // width
        # take candidates in order until the row has k live beams
        live = total > -np.inf
        ends = (tok == B.EOS) | (toks.shape[1] + 1 >= limits[:, None])
        grows = live & ~ends
        taken = live & (grows @ upper[:tok.shape[1], :tok.shape[1]] < k)
        new = taken & grows  # the row's new beams, in order, fill its slots
        pick = np.argsort(~new, axis=1, kind="stable")[:, :k]
        kept = new[rows, pick]
        r, j = np.nonzero(taken & ends)
        if len(r):
            parent = r * k + origin[r, j]
            for row, t, s, hyp, st in zip(
                    r.tolist(), tok[r, j].tolist(), total[r, j].tolist(),
                    toks[parent].tolist(), states[parent]):
                ended[row].append((s, hyp if t == B.EOS else hyp + [t], st))
                if len(ended[row]) == k:  # the row is done
                    kept[row] = False
        y = np.where(kept, tok[rows, pick], B.EOS).reshape(-1)
        score = np.where(kept, total[rows, pick], -np.inf)
        carry = res.carry
        if k > 1:  # move each kept beam's history into its new slot
            gather = (rows * k + origin[rows, pick]).reshape(-1)
            toks, states = toks[gather], states[gather]
            carry = [(T.Tensor(h.data[gather]), T.Tensor(c.data[gather]))
                     for h, c in carry]
        toks = np.concatenate([toks, y[:, None]], axis=1)
    best = [max(e, key=itemgetter(0)) for e in ended]  # none is empty
    return [b[1] for b in best], [b[2] for b in best]


def _translate_group(model, docs: Sequence[C.Document], src_vocab, trg_vocab,
                     beam_size: int, gold_context: bool,
                     stats: TranslationStats) -> list[list[list[str]]]:
    reads = CONTEXTS[model.cfg.variant]
    keep_states = "dec" in reads and not gold_context
    rows = C.flat_batch(docs, src_vocab, trg_vocab)
    index = np.concatenate([np.arange(len(doc)) for doc in docs])
    emitted: list[list[int]] = [[] for _ in index]
    with T.no_grad():
        enc = model.encode(rows.src, rows.src_mask)
        left = model.leaves(rows, enc, model._decoder(
            rows.trg_in, model.init_carry(enc), None)
            if gold_context and "dec" in reads else None)
        for i in range(index.max() + 1):
            r = np.flatnonzero(index == i)
            context = model.context_states(left, rows.prev[r]) if i else []
            for name in reads if i else ():
                stats.count(name, gold_context, len(r))
            hyps, states = _beam_search(model, enc.take(r), context,
                                        beam_size, keep_states)
            out, kept = [[]] * len(index), [states[0][:0]] * len(index)
            for row, hyp, st in zip(r.tolist(), hyps, states):
                emitted[row] = out[row] = hyp
                kept[row] = st
            if not gold_context:  # index i + 1 reads what index i emitted
                left = left._replace(
                    trg=C.pad_rows(out),
                    dec=C.pad_rows(kept) if keep_states else None)
    ends = np.cumsum([len(doc) for doc in docs]).tolist()
    return [[trg_vocab.decode(hyp) for hyp in emitted[end - len(doc):end]]
            for doc, end in zip(docs, ends)]


def check_vocabularies(model: TranslationModel, src_vocab: Vocabulary,
                       trg_vocab: Vocabulary) -> None:
    """Raise unless the vocabularies have the sizes the model was built
    with, naming their files."""
    sizes = (len(src_vocab), len(trg_vocab))
    if sizes != (model.cfg.src_vocab_size, model.cfg.trg_vocab_size):
        files = " / ".join(str(v.path) for v in (src_vocab, trg_vocab)
                           if v.path is not None)
        raise ValueError(
            f"{files + ': ' if files else ''}vocabulary sizes (source "
            f"{sizes[0]}, target {sizes[1]}) do not match the model's "
            f"(source {model.cfg.src_vocab_size}, target "
            f"{model.cfg.trg_vocab_size})")


def translate_corpus(model: TranslationModel, docs: Sequence[C.Document],
                     src_vocab: Vocabulary, trg_vocab: Vocabulary,
                     beam_size: int = 1, gold_context: bool = False,
                     batch_docs: int = 64
                     ) -> tuple[list[list[list[str]]], TranslationStats]:
    """Translate documents in order; returns subword-token hypotheses."""
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if batch_docs < 1:
        raise ValueError(f"batch_docs must be >= 1, got {batch_docs}")
    check_vocabularies(model, src_vocab, trg_vocab)
    stats = TranslationStats()
    hyps: list[list[list[str]]] = []
    for start in range(0, len(docs), batch_docs):
        hyps.extend(_translate_group(model, docs[start:start + batch_docs],
                                     src_vocab, trg_vocab, beam_size,
                                     gold_context, stats))
    return hyps, stats


# ---------------------------------------------------------------------------
# BLEU


@dataclass
class EvalReport:
    bleu: float
    precisions: list[float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def pretty(self) -> str:
        ps = "/".join(f"{100 * p:.1f}" for p in self.precisions)
        return (f"BLEU = {self.bleu:.2f}  (precisions {ps}, "
                f"BP {self.brevity_penalty:.4f}, "
                f"hyp len {self.hyp_length}, ref len {self.ref_length})")

    def records(self) -> str:
        lines = [f"bleu={self.bleu:.2f}"]
        lines += [f"p{n}={p:.6f}" for n, p in enumerate(self.precisions, 1)]
        lines += [f"brevity_penalty={self.brevity_penalty:.6f}",
                  f"hyp_length={self.hyp_length}",
                  f"ref_length={self.ref_length}"]
        return "\n".join(lines) + "\n"


def _block_stats(hyps: Sequence[Sequence[str]],
                 refs: Sequence[Sequence[str]]) -> np.ndarray:
    """`pair_stats` of one block of pairs.

    An order-k n-gram of a pair is coded as the dense rank of (its
    order-(k-1) prefix's code, its last token); the order-0 code is the
    pair's index.  So a pair's hypothesis and reference share each
    n-gram's code, other pairs never do, and codes stay below the
    position count: nothing overflows.
    """
    n = len(hyps)
    lengths = np.fromiter(map(len, chain(hyps, refs)), dtype=np.int64,
                          count=2 * n)
    hyp_len, ref_len = lengths[:n], lengths[n:]
    flat = list(chain.from_iterable(chain(hyps, refs)))
    ids = {t: i for i, t in enumerate(dict.fromkeys(flat))}
    tok = np.fromiter(map(ids.__getitem__, flat), dtype=np.int64,
                      count=len(flat))
    # hypothesis positions come first; the tokens from each position to
    # its sentence's end
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(tok))
    code = np.repeat(np.tile(np.arange(n), 2), lengths)  # order 0: the pair
    at, owner = np.arange(len(tok)), np.arange(n)  # owner: each code's pair
    rows = np.zeros((n, 10), dtype=np.int64)
    for k in range(1, 5):
        at = at[left[at] >= k]  # positions that start an order-k n-gram
        uniq, code[at] = np.unique(code[at] * len(ids) + tok[at + k - 1],
                                   return_inverse=True)
        owner = owner[uniq // len(ids)]
        split = np.searchsorted(at, hyp_len.sum())
        # each code's clipped count: the smaller of its two sides' counts
        clip = np.minimum(np.bincount(code[at[:split]], minlength=len(uniq)),
                          np.bincount(code[at[split:]], minlength=len(uniq)))
        rows[:, k - 1] = np.bincount(owner, weights=clip, minlength=n)
        rows[:, 4 + k - 1] = np.maximum(hyp_len - k + 1, 0)
    rows[:, 8], rows[:, 9] = hyp_len, ref_len
    return rows


def pair_stats(hyps: Sequence[Sequence[str]],
               refs: Sequence[Sequence[str]]) -> np.ndarray:
    """[clip_1..4, total_1..4, hyp_len, ref_len] per sentence pair: an
    (n, 10) int64 array, counted `STATS_BLOCK` pairs at a time."""
    rows = np.empty((len(hyps), 10), dtype=np.int64)
    for start in range(0, len(hyps), STATS_BLOCK):
        end = start + STATS_BLOCK
        rows[start:end] = _block_stats(hyps[start:end], refs[start:end])
    return rows


def _bleu_from_totals(totals: np.ndarray) -> tuple[float, list[float], float]:
    clip, tot = totals[:4], totals[4:8]
    hyp_len, ref_len = int(totals[8]), int(totals[9])
    precisions = [(clip[n] / tot[n]) if tot[n] > 0 else 0.0 for n in range(4)]
    if hyp_len == 0:
        return 0.0, precisions, 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        return 0.0, precisions, bp
    score = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return 100.0 * score, precisions, bp


def bleu(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]
         ) -> EvalReport:
    """Corpus BLEU-4 with clipped precisions and brevity penalty, unsmoothed."""
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    totals = pair_stats(hyps, refs).sum(axis=0)
    score, precisions, bp = _bleu_from_totals(totals)
    return EvalReport(bleu=score, precisions=precisions, brevity_penalty=bp,
                      hyp_length=int(totals[8]), ref_length=int(totals[9]))


# ---------------------------------------------------------------------------
# paired bootstrap


@dataclass
class SignificanceResult:
    p_value: float
    n_resamples: int
    mean_delta: float  # mean over resamples of BLEU(B) - BLEU(A)
    wins_b: int
    ties: int
    bleu_a: float  # corpus BLEU of each system, not among the records
    bleu_b: float

    def records(self) -> str:
        return (f"p_value={self.p_value:.4f}\n"
                f"n_resamples={self.n_resamples}\n"
                f"mean_delta={self.mean_delta:.4f}\n"
                f"wins_b={self.wins_b}\nties={self.ties}\n")


def bootstrap_significance(hyps_a: Sequence[Sequence[str]],
                           hyps_b: Sequence[Sequence[str]],
                           refs: Sequence[Sequence[str]],
                           n_resamples: int = 1000,
                           seed: int = 0) -> SignificanceResult:
    """Paired bootstrap over sentences, testing "B better than A".

    p is the fraction of resamples where BLEU(B) <= BLEU(A); small p
    means B's advantage survives resampling.  A resample's totals are its
    draw counts per sentence times the per-sentence statistics.
    """
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise ValueError(f"system outputs and references must align: "
                         f"{len(hyps_a)} and {len(hyps_b)} hypotheses, "
                         f"{len(refs)} references")
    if not refs:
        raise ValueError("no sentences to resample")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    n_sents = len(refs)
    # both systems side by side: columns 0-9 are A's statistics, 10-19 B's
    stats = np.hstack([pair_stats(hyps, refs) for hyps in (hyps_a, hyps_b)])
    # one float64 GEMV per resample; every partial sum is an integer of at
    # most n_sents times the longest sentence, far below 2**53, so exact
    weights = stats.astype(np.float64)
    rng = np.random.default_rng(seed)
    not_better = 0
    ties = 0
    deltas = np.empty(n_resamples)
    for k in range(n_resamples):
        idx = rng.integers(0, n_sents, size=n_sents)
        totals = (np.bincount(idx, minlength=n_sents).astype(np.float64)
                  @ weights).astype(np.int64)
        score_a, _, _ = _bleu_from_totals(totals[:10])
        score_b, _, _ = _bleu_from_totals(totals[10:])
        deltas[k] = score_b - score_a
        if score_b <= score_a:
            not_better += 1
        if score_b == score_a:
            ties += 1
    totals = stats.sum(axis=0)
    return SignificanceResult(
        p_value=not_better / n_resamples,
        n_resamples=n_resamples,
        mean_delta=float(deltas.mean()),
        wins_b=int((deltas > 0).sum()),
        ties=ties,
        bleu_a=_bleu_from_totals(totals[:10])[0],
        bleu_b=_bleu_from_totals(totals[10:])[0])


# ---------------------------------------------------------------------------
# synthetic-task slot scoring


@dataclass
class SlotReport:
    """Accuracy of the ambiguous slots against the hidden document choice."""

    slot_accuracy: float
    n_slots: int
    self_consistency: float    # agreement with the model's own sentence-1 pick
    n_consistency_slots: int

    def records(self) -> str:
        return (f"slot_accuracy={self.slot_accuracy:.4f}\n"
                f"n_slots={self.n_slots}\n"
                f"self_consistency={self.self_consistency:.4f}\n"
                f"n_consistency_slots={self.n_consistency_slots}\n")


def _first_synonym(tokens: Sequence[str]) -> Optional[str]:
    for t in tokens:
        if t in C.SYNONYMS:
            return t
    return None


def score_slots(hyp_docs: Sequence[Sequence[Sequence[str]]],
                metas: Sequence[C.SlotMeta]) -> SlotReport:
    """Score de-segmented hypotheses against the synthetic metadata.

    A slot is correct when the first synonym token emitted in that
    sentence equals the document's hidden choice.  Self-consistency
    instead compares each slot with the synonym the model emitted in the
    document's first sentence, when it emitted one there.  A slot past
    its document's last sentence is an error.
    """
    if len(hyp_docs) != len(metas):
        raise ValueError("hypothesis documents and metadata must align")
    correct = total = 0
    cons_correct = cons_total = 0
    for hyp_doc, meta in zip(hyp_docs, metas):
        anchor = _first_synonym(hyp_doc[0]) if hyp_doc else None
        for slot in meta.slot_indices:
            if slot >= len(hyp_doc):
                raise ValueError(f"document {meta.doc_id}: slot index "
                                 f"{slot} is past its {len(hyp_doc)} "
                                 "sentences")
            got = _first_synonym(hyp_doc[slot])
            total += 1
            if got == meta.choice:
                correct += 1
            if anchor is not None:
                cons_total += 1
                if got == anchor:
                    cons_correct += 1
    return SlotReport(
        slot_accuracy=correct / total if total else 0.0,
        n_slots=total,
        self_consistency=cons_correct / cons_total if cons_total else 0.0,
        n_consistency_slots=cons_total)
