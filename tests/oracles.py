"""Independent reference implementations used as test oracles.

These deliberately avoid the library's autodiff path: gradients come from
central finite differences over plain float functions, and the LSTM
reference is a scalar loop over the gate equations.  The BPE learner and
the paired bootstrap are the plain recount-everything versions of the
library's incremental ones, and the BLEU statistics are counted with one
`Counter` per sentence and n-gram order where the library counts integer
n-gram codes in numpy blocks.  The per-step LSTM chain and decoder are the
record-per-step versions of the library's scans: each step is its own
tape record, as the library ran them before `lstm_scan`.  The position
walk is training's batch step as it ran before one teacher-forced pass
covered every sentence of a batch.
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


def masked_lstm_cell(x, h_prev, c_prev, w_x, w_h, b, mask):
    """One LSTM step as its own tape record (gates in i, f, g, o order).

    `mask` (B, 1) carries the previous state through padded rows:
    out = mask*new + (1-mask)*prev.
    """
    from docnmt.tensor import _gates, _gates_backward, _make

    hidden = h_prev.shape[-1]
    z = x.data @ w_x.data + h_prev.data @ w_h.data + b.data
    keep = 1.0 - mask
    h_data, c_data, gates = _gates(z, h_prev.data, c_prev.data, mask, keep)

    def bw(h_out, c_out):
        zero = np.zeros_like(h_data)
        gh = zero if h_out.grad is None else h_out.grad
        gc = zero if c_out.grad is None else c_out.grad
        if h_prev.requires_grad:
            h_prev.accumulate_grad(gh * keep, owned=True)
        if c_prev.requires_grad:
            c_prev.accumulate_grad(gc * keep, owned=True)
        gz, gc_total = _gates_backward(gh, gc, c_prev.data, c_data, mask,
                                       gates)
        f = gates[:, hidden:2 * hidden]
        if x.requires_grad:
            x.accumulate_grad(gz @ w_x.data.T, owned=True)
        if h_prev.requires_grad:
            h_prev.accumulate_grad(gz @ w_h.data.T, owned=True)
        if c_prev.requires_grad:
            c_prev.accumulate_grad(gc_total * f, owned=True)
        if w_x.requires_grad:
            w_x.accumulate_grad(x.data.T @ gz, owned=True)
        if w_h.requires_grad:
            w_h.accumulate_grad(h_prev.data.T @ gz, owned=True)
        if b.requires_grad:
            b.accumulate_grad(gz.sum(axis=0), owned=True)

    return _make((x, h_prev, c_prev, w_x, w_h, b), bw, h_data, c_data)


def stack(tensors, axis=0):
    """Stack tensors along a new axis, one tape record."""
    from docnmt.tensor import _make

    tensors = list(tensors)

    def bw(out):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate_grad(np.take(out.grad, i, axis=axis), owned=True)

    return _make(tensors, bw, np.stack([t.data for t in tensors], axis=axis))


def select(x, axis, index):
    """Pick one slice along `axis`, dropping that axis."""
    from docnmt.tensor import _make

    def bw(out):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        sl = [slice(None)] * x.ndim
        sl[axis] = index
        x.grad[tuple(sl)] += out.grad

    return _make((x,), bw, np.take(x.data, index, axis=axis))


def cell_chain(x, mask, cells, initial=None):
    """An LSTM layer as a chain of masked cell records per direction:
    `select` each position, `stack` each direction, `concat` them.

    `initial`, for one direction, is the (h, c) the chain starts from.
    Returns what `lstm_scan` returns: states, final h, final c.
    """
    from docnmt import tensor as T

    batch, steps, _ = x.shape
    outputs, finals = [], []
    for d, (w_x, w_h, b) in enumerate(cells):
        if initial is not None:
            h, c = initial
        else:
            h = T.Tensor(np.zeros((batch, w_h.shape[0]), dtype=x.dtype))
            c = T.Tensor(np.zeros((batch, w_h.shape[0]), dtype=x.dtype))
        states = [None] * steps
        for t in (range(steps - 1, -1, -1) if d else range(steps)):
            h, c = masked_lstm_cell(select(x, 1, t), h, c, w_x, w_h, b,
                                    mask=mask[:, t:t + 1].astype(x.dtype))
            states[t] = h
        outputs.append(states)
        finals.append((h, c))
    if len(cells) == 1:
        return stack(outputs[0], axis=1), finals[0][0], finals[0][1]
    states = T.concat([stack(out, axis=1) for out in outputs], axis=-1)
    return (states, T.concat([h for h, _ in finals], axis=-1),
            T.concat([c for _, c in finals], axis=-1))


def decoder_loss_reference(model, pos, context, rng=None):
    """Teacher-forced loss for one batch position, the decoder one record
    per step: each step's two cell records are followed right away by its
    readout (attention, `attn_out`), and dropout between the layers is
    drawn step by step.

    Returns (loss, decoder states (B, N, H) after each gold token).
    """
    from docnmt import tensor as T
    from docnmt.model import context_attention

    p = model.params
    enc = model.encode(pos.src, pos.src_mask, rng)
    emb = T.embedding(p["trg_emb"], pos.trg_in)
    if rng is not None:
        emb = T.dropout(emb, model.cfg.dropout, rng)
    (h1, c1), (h2, c2) = model.init_carry(enc)
    ones = np.ones((pos.trg_in.shape[0], 1), dtype=emb.dtype)
    h_tildes, h_tops = [], []
    for t in range(pos.trg_in.shape[1]):
        h1, c1 = masked_lstm_cell(select(emb, 1, t), h1, c1, p["dec_l1_wx"],
                                  p["dec_l1_wh"], p["dec_l1_b"], ones)
        mid = h1 if rng is None else T.dropout(h1, model.cfg.dropout, rng)
        h2, c2 = masked_lstm_cell(mid, h2, c2, p["dec_l2_wx"],
                                  p["dec_l2_wh"], p["dec_l2_b"], ones)
        attn, _ = T.dot_attention(enc.states, enc.mask, h2)
        pieces = [h2, attn]
        if model.cfg.uses_context:
            pieces.append(context_attention(h2, context)[0])
        h_tildes.append(T.tanh(T.matmul(T.concat(pieces, axis=-1),
                                        p["attn_out"])))
        h_tops.append(h2)
    h_tilde = T.reshape(stack(h_tildes, axis=1), (-1, model.cfg.hidden_dim))
    counted = np.flatnonzero(pos.out_mask)
    loss = T.cross_entropy(T.embedding(h_tilde, counted), p["out_proj"],
                           pos.trg_out.reshape(-1)[counted])
    return loss, stack(h_tops[1:], axis=1)


def position_walk(model, docs, src_vocab, trg_vocab):
    """A training batch walked sentence position by sentence position:
    one `forward_loss` and one backward per position, each position's
    context built from the `Previous` the one before it left, its loss
    weighted by its token count, the gradients divided by the batch's
    tokens at the end.

    Returns the batch's mean NLL; the parameters' gradients are its
    gradients, zero where it reads none.
    """
    from docnmt import corpus as C
    from docnmt import tensor as T

    model.zero_grad()
    prev, total, tokens = None, 0.0, 0.0
    for pos in C.build_batch(docs, src_vocab, trg_vocab).positions:
        loss, _, prev, ntok = model.forward_loss(
            pos, model.context_states(prev, np.arange(len(pos.src))))
        T.backward(T.mul(loss, ntok), params=model.param_list())
        total += float(loss.data) * ntok
        tokens += ntok
    for p in model.param_list():
        if p.grad is not None:
            p.grad /= tokens
    return total / tokens


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

    hyps, prev = [], None
    for src, trg in doc.pairs:
        src_ids, src_mask = _one_row(src_vocab.encode(src))
        limit = math.ceil(MAX_RATIO * len(src))
        with T.no_grad():
            enc = model.encode(src_ids, src_mask)
            context = model.context_states(prev, np.arange(1))
            carry = model.init_carry(enc)
            y, out, states = B.BOS, [], []
            while True:
                res = model.decode_step(np.array([y]), carry, enc, context)
                carry = res.carry
                if out:
                    states.append(res.carry[-1][0].data[0])
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
                    states.append(res.carry[-1][0].data[0])
                states = states[1:]
        hyps.append(trg_vocab.decode(out))
        prev = _previous(model, src_ids, src_mask, enc, context_ids, states)
    return hyps


def _previous(model, src_ids, src_mask, enc, ids, states):
    """What one sentence leaves for the next, as a public `Previous`: the
    target ids and the top-layer decoder state after each was fed back
    (a length-capped last token has none)."""
    from docnmt.model import Previous

    dec = np.zeros((1, max(1, len(states)), model.cfg.hidden_dim),
                   dtype=model.dtype)
    dec[0, :len(states)] = np.reshape(states, (-1, model.cfg.hidden_dim))
    _, dec_mask = _one_row([0] * len(states))
    return Previous(src=(src_ids, src_mask), enc=(enc.states.data, enc.mask),
                    trg=_one_row(ids), dec=(dec, dec_mask))


def beam_reference(model, doc, src_vocab, trg_vocab, beam_size):
    """Beam search over one document, one sentence and one beam at a time.

    Each beam keeps its hypothesis ids and the top-layer decoder state
    after each of them was fed back; sentence i's context is sentence
    i-1's winner as in `greedy_reference`.  Each step ranks every (beam,
    token) extension by (score desc, beam index, token id), scores being
    summed float64 log-probabilities, and takes extensions in that order
    among the best 2k until k beams continue; an extension ending at EOS
    or at the length limit joins the finished list (a length-capped last
    token is never fed back, so it has no state), and a sentence stops
    once k hypotheses finished.  The best finished hypothesis wins, the
    earliest on ties.
    """
    from docnmt import bpe as B
    from docnmt import tensor as T
    from docnmt.evaluation import MAX_RATIO

    hyps, prev = [], None
    for src, _ in doc.pairs:
        src_ids, src_mask = _one_row(src_vocab.encode(src))
        limit = math.ceil(MAX_RATIO * len(src))
        with T.no_grad():
            enc = model.encode(src_ids, src_mask)
            context = model.context_states(prev, np.arange(1))
            beams, done = [([], 0.0, model.init_carry(enc), [])], []
            while beams and len(done) < beam_size:
                ranked = []
                for b, (toks, score, carry, states) in enumerate(beams):
                    y = toks[-1] if toks else B.BOS
                    res = model.decode_step(np.array([y]), carry, enc,
                                            context)
                    if toks:
                        states = states + [res.carry[-1][0].data[0]]
                    logp = np.log(np.maximum(
                        res.probs.data[0].astype(np.float64), 1e-300))
                    ranked += [(-(score + lp), b, t, toks, res.carry, states)
                               for t, lp in enumerate(logp.tolist())]
                ranked.sort(key=lambda c: c[:3])
                beams = []
                for neg, _, t, toks, carry, states in ranked[:2 * beam_size]:
                    if t == B.EOS:
                        done.append((-neg, toks, states))
                    elif len(toks) + 1 >= limit:
                        done.append((-neg, toks + [t], states))
                    else:
                        beams.append((toks + [t], -neg, carry, states))
                    if len(beams) == beam_size:
                        break
        _, out, states = max(done, key=lambda d: d[0])
        hyps.append(trg_vocab.decode(out))
        prev = _previous(model, src_ids, src_mask, enc, out, states)
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


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def sentence_stats(hyp, ref):
    """[clip_1..4, total_1..4, hyp_len, ref_len] for one sentence pair."""
    row = np.zeros(10, dtype=np.int64)
    for n in range(1, 5):
        hyp_counts = _ngrams(hyp, n)
        ref_counts = _ngrams(ref, n)
        row[n - 1] = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        row[4 + n - 1] = max(len(hyp) - n + 1, 0)
    row[8] = len(hyp)
    row[9] = len(ref)
    return row


def bootstrap_reference(hyps_a, hyps_b, refs, n_resamples, seed):
    """Paired bootstrap over sentences, each resample summed row by row.

    Returns (p_value, mean_delta, wins_b, ties) for "B better than A": p is
    the fraction of resamples where BLEU(B) <= BLEU(A).
    """
    from docnmt.evaluation import _bleu_from_totals

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
