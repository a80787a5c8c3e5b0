"""Independent reference implementations used as test oracles.

These deliberately avoid the library's autodiff path: gradients come from
central finite differences over plain float functions, and the LSTM
reference is a scalar loop over the gate equations.  The BPE learner and
the paired bootstrap are the plain recount-everything versions of the
library's incremental ones.
"""

from collections import Counter
import math

import numpy as np


def finite_difference_grads(loss_fn, params, eps=1e-4):
    """Central-difference gradient of `loss_fn()` wrt each array in `params`.

    `loss_fn` must recompute the loss from the current contents of the
    arrays; entries are perturbed in place one scalar at a time.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p, dtype=np.float64)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-3):
    """Max of |a - n| / max(|a|, |n|, floor) over paired gradient arrays.

    The floor turns the bound into an absolute one for components whose
    gradient is smaller than `floor`, where central differences are
    dominated by roundoff.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def scalar_lstm_step(x, h_prev, c_prev, w_x, w_h, b):
    """LSTM gate equations evaluated one scalar at a time (i, f, g, o order)."""
    hidden = len(h_prev)
    z = [0.0] * (4 * hidden)
    for j in range(4 * hidden):
        acc = b[j]
        for k in range(len(x)):
            acc += x[k] * w_x[k][j]
        for k in range(hidden):
            acc += h_prev[k] * w_h[k][j]
        z[j] = acc

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h, c = [0.0] * hidden, [0.0] * hidden
    for j in range(hidden):
        i_g = sig(z[j])
        f_g = sig(z[hidden + j])
        g_g = math.tanh(z[2 * hidden + j])
        o_g = sig(z[3 * hidden + j])
        c[j] = f_g * c_prev[j] + i_g * g_g
        h[j] = o_g * math.tanh(c[j])
    return h, c


def _one_row(ids):
    """A (1, width) id matrix and its mask, at least one column wide."""
    mat = np.zeros((1, max(1, len(ids))), dtype=np.int64)
    mask = np.zeros(mat.shape, dtype=np.float32)
    mat[0, :len(ids)] = ids
    mask[0, :len(ids)] = 1.0
    return mat, mask


def greedy_reference(model, doc, src_vocab, trg_vocab, gold_context=False):
    """Greedy decoding of one document, one sentence at a time, batch 1.

    Each step takes the argmax of `decode_step` (lowest id on ties) and a
    hypothesis ends at EOS or at ceil(MAX_RATIO * source length) tokens.
    Sentence i's context comes from sentence i-1 through a public
    `Previous`: its source ids and encoder states, its hypothesis (or,
    with gold_context, gold) ids, and the top-layer decoder states after
    each of those tokens was fed back.
    """
    from docnmt import bpe as B
    from docnmt import tensor as T
    from docnmt.evaluation import MAX_RATIO
    from docnmt.model import Previous

    hyps, prev = [], None
    for src, trg in doc.pairs:
        src_ids, src_mask = _one_row(src_vocab.encode(src))
        limit = math.ceil(MAX_RATIO * len(src))
        with T.no_grad():
            enc = model.encode(src_ids, src_mask)
            context = model.context_states(prev)
            carry = model.init_carry(enc)
            y, out, states = B.BOS, [], []
            while True:
                res = model.decode_step(np.array([y]), carry, enc, context)
                carry = res.carry
                if out:
                    states.append(res.h_top.data[0])
                y = int(np.argmax(res.probs.data[0]))
                if y == B.EOS:
                    break
                out.append(y)
                if len(out) >= limit:
                    break
            context_ids = out
            if gold_context:
                context_ids = trg_vocab.encode(trg)
                carry, states = model.init_carry(enc), []
                for y in [B.BOS] + context_ids:
                    res = model.decode_step(np.array([y]), carry, enc,
                                            context)
                    carry = res.carry
                    states.append(res.h_top.data[0])
                states = states[1:]
        hyps.append(trg_vocab.decode(out))
        dec = np.zeros((1, max(1, len(states)), model.cfg.hidden_dim),
                       dtype=model.dtype)
        dec[0, :len(states)] = np.reshape(states, (-1, model.cfg.hidden_dim))
        _, dec_mask = _one_row([0] * len(states))
        prev = Previous(src=(src_ids, src_mask), enc=(enc.states, enc.mask),
                        trg=_one_row(context_ids),
                        dec=(T.Tensor(dec), dec_mask))
    return hyps


def beam_reference(model, doc, src_vocab, trg_vocab, beam_size):
    """Beam search over one document, one sentence and one beam at a time.

    Context comes only from the previous sentence's encoder states, so it
    serves the baseline and shared-source variants.  Each step ranks every
    (beam, token) extension by (score desc, beam index, token id), scores
    being summed float64 log-probabilities, and takes extensions in that
    order among the best 2k until k beams continue; an extension ending at
    EOS or at the length limit joins the finished list, and a sentence
    stops once k hypotheses finished.  The best finished hypothesis wins,
    the earliest on ties.
    """
    from docnmt import bpe as B
    from docnmt import tensor as T
    from docnmt.evaluation import MAX_RATIO
    from docnmt.model import Previous

    hyps, prev = [], None
    for src, _ in doc.pairs:
        src_ids, src_mask = _one_row(src_vocab.encode(src))
        limit = math.ceil(MAX_RATIO * len(src))
        with T.no_grad():
            enc = model.encode(src_ids, src_mask)
            context = model.context_states(prev)
            beams, done = [([], 0.0, model.init_carry(enc))], []
            while beams and len(done) < beam_size:
                ranked = []
                for b, (toks, score, carry) in enumerate(beams):
                    y = toks[-1] if toks else B.BOS
                    res = model.decode_step(np.array([y]), carry, enc,
                                            context)
                    logp = np.log(np.maximum(
                        res.probs.data[0].astype(np.float64), 1e-300))
                    ranked += [(-(score + lp), b, t, toks, res.carry)
                               for t, lp in enumerate(logp.tolist())]
                ranked.sort(key=lambda c: c[:3])
                beams = []
                for neg, _, t, toks, carry in ranked[:2 * beam_size]:
                    if t == B.EOS:
                        done.append((-neg, toks))
                    elif len(toks) + 1 >= limit:
                        done.append((-neg, toks + [t]))
                    else:
                        beams.append((toks + [t], -neg, carry))
                    if len(beams) == beam_size:
                        break
        hyps.append(trg_vocab.decode(max(done, key=lambda d: d[0])[1]))
        prev = Previous(enc=(enc.states, enc.mask))
    return hyps


def learn_bpe_reference(sentences, num_merges):
    """Learn merge rules by greedy most-frequent-pair counting.

    Every merge recounts every pair of every word type.  Ties break
    lexicographically on the pair so learning is deterministic.
    """
    from docnmt.bpe import EOW, BpeModel, _merge_symbols

    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    word_freq = Counter()
    for sent in sentences:
        word_freq.update(sent)
    if not word_freq:
        raise ValueError("cannot learn BPE from an empty corpus")

    words = {w: list(w) + [EOW] for w in word_freq}
    merges = []
    for _ in range(num_merges):
        pair_freq = Counter()
        for w, symbols in words.items():
            freq = word_freq[w]
            for pair in zip(symbols, symbols[1:]):
                pair_freq[pair] += freq
        if not pair_freq:
            break
        best_count = max(pair_freq.values())
        best = min(p for p, c in pair_freq.items() if c == best_count)
        merges.append(best)
        for w in words:
            words[w] = _merge_symbols(words[w], best)
    return BpeModel(merges)


def bootstrap_reference(hyps_a, hyps_b, refs, n_resamples, seed):
    """Paired bootstrap over sentences, each resample summed row by row.

    Returns (p_value, mean_delta, wins_b, ties) for "B better than A": p is
    the fraction of resamples where BLEU(B) <= BLEU(A).
    """
    from docnmt.evaluation import _bleu_from_totals, sentence_stats

    n_sents = len(refs)
    stats_a = np.stack([sentence_stats(h, r) for h, r in zip(hyps_a, refs)])
    stats_b = np.stack([sentence_stats(h, r) for h, r in zip(hyps_b, refs)])
    rng = np.random.default_rng(seed)
    not_better = 0
    ties = 0
    deltas = np.empty(n_resamples)
    for k in range(n_resamples):
        idx = rng.integers(0, n_sents, size=n_sents)
        score_a, _, _ = _bleu_from_totals(stats_a[idx].sum(axis=0))
        score_b, _, _ = _bleu_from_totals(stats_b[idx].sum(axis=0))
        deltas[k] = score_b - score_a
        if score_b <= score_a:
            not_better += 1
        if score_b == score_a:
            ties += 1
    return (not_better / n_resamples, float(deltas.mean()),
            int((deltas > 0).sum()), ties)
