"""Attentional LSTM encoder-decoder with previous-sentence context.

Six variants share one interface.  The baseline translates sentences
independently.  Separated variants run an extra two-layer context LSTM
over the previous source or target sentence; shared variants reuse the
saved encoder or decoder states of the previous sentence instead, and
shared-mix sums the source- and target-side context attention vectors.
The output projection consumes [decoder state; current attention] for the
baseline and [decoder state; current attention; context attention] for
the context variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import tensor as T


class Previous(NamedTuple):
    """What one sentence leaves for the next, per document row.

    Each field is a (values, mask) pair of arrays, or None when nothing
    being run reads it: `src` the source ids, `enc` the encoder states,
    `trg` the target ids, `dec` the top-layer decoder state after each of
    those target tokens was fed back; `context_states` makes them tensors.
    """

    src: Optional[tuple[np.ndarray, np.ndarray]] = None
    enc: Optional[tuple[np.ndarray, np.ndarray]] = None
    trg: Optional[tuple[np.ndarray, np.ndarray]] = None
    dec: Optional[tuple[np.ndarray, np.ndarray]] = None


# Where each variant's context comes from: the `Previous` fields its
# context attention reads.  Separated variants read `src` or `trg` through
# the context LSTM; shared ones reuse the saved `enc` or `dec` states.
# Everything variant-specific (parameters, training, decoding, decode
# counters) reads this table.
CONTEXTS: dict[str, tuple[str, ...]] = {
    "baseline": (),
    "separated-source": ("src",),
    "separated-target": ("trg",),
    "shared-source": ("enc",),
    "shared-target": ("dec",),
    "shared-mix": ("enc", "dec"),
}
VARIANTS = tuple(CONTEXTS)

# The two-layer LSTM stacks: encoder, decoder and the separated variants'
# context LSTM.  Each lists the cells of one layer by parameter-name suffix
# (`<stack>_l<layer><suffix>_{wx,wh,b}`); a cell is `hidden_dim` divided by
# the cell count wide.  The encoder's second cell reads right to left.
STACKS = {"enc": ("_fwd", "_bwd"), "dec": ("",), "ctx": ("",)}

INIT_RANGE = 0.08


@dataclass
class ModelConfig:
    variant: str
    emb_dim: int
    hidden_dim: int
    src_vocab_size: int
    trg_vocab_size: int
    dropout: float = 0.2

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant}")
        for name in ("emb_dim", "hidden_dim", "src_vocab_size",
                     "trg_vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")
        if self.hidden_dim % 2 != 0:
            raise ValueError("hidden_dim must be even (bidirectional halves)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def uses_context(self) -> bool:
        return bool(CONTEXTS[self.variant])


def _stack_shapes(stack: str, e: int, h: int) -> dict[str, tuple[int, ...]]:
    """One two-layer stack's (w_x, w_h, b) per cell, layer by layer."""
    width = h // len(STACKS[stack])
    shapes = {}
    for layer, in_dim in ((1, e), (2, h)):
        for cell in STACKS[stack]:
            stem = f"{stack}_l{layer}{cell}"
            shapes[f"{stem}_wx"] = (in_dim, 4 * width)
            shapes[f"{stem}_wh"] = (width, 4 * width)
            shapes[f"{stem}_b"] = (4 * width,)
    return shapes


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter order; checkpoints serialize in this order."""
    e, h = cfg.emb_dim, cfg.hidden_dim
    shapes = {"src_emb": (cfg.src_vocab_size, e),
              "trg_emb": (cfg.trg_vocab_size, e),
              **_stack_shapes("enc", e, h), **_stack_shapes("dec", e, h),
              "attn_out": ((3 if cfg.uses_context else 2) * h, h),
              "out_proj": (h, cfg.trg_vocab_size)}
    if {"src", "trg"} & set(CONTEXTS[cfg.variant]):
        shapes.update(_stack_shapes("ctx", e, h))
    return shapes


def param_count(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in parameter_shapes(cfg).values())


def _init_param(name: str, shape: tuple[int, ...], rng: np.random.Generator,
                dtype) -> T.Tensor:
    if name.endswith("_b"):
        data = np.zeros(shape)
        gates = shape[0] // 4
        data[gates:2 * gates] = 1.0  # forget-gate bias stabilizer
    else:
        data = rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)
    return T.Tensor(data, requires_grad=True, dtype=dtype)


@dataclass
class EncoderStates:
    """Per-token encoder states plus the per-layer final carries."""

    states: T.Tensor                       # (B, M, H)
    mask: np.ndarray                       # (B, M)
    finals: list[tuple[T.Tensor, T.Tensor]]  # per layer (h, c), each (B, H)

    def take(self, rows: np.ndarray) -> EncoderStates:
        """The rows `rows` names (one may repeat), trimmed to their longest
        source and at least one column."""
        width = max(1, int(self.mask[rows].any(axis=0).sum()))
        return EncoderStates(
            T.Tensor(self.states.data[rows, :width]), self.mask[rows, :width],
            [(T.Tensor(h.data[rows]), T.Tensor(c.data[rows]))
             for h, c in self.finals])


@dataclass
class StepResult:
    probs: T.Tensor            # (B, V)
    carry: list[tuple[T.Tensor, T.Tensor]]  # (h, c) per layer, top last
    alpha: Optional[T.Tensor]  # (B, M) current-sentence attention
    betas: list[T.Tensor]      # context attention weights per context entry


def context_attention(h: T.Tensor, context: list[tuple[T.Tensor, np.ndarray]]
                      ) -> tuple[T.Tensor, list[T.Tensor]]:
    """Previous-sentence attention; no context yields an exact zero vector.

    With several (states, mask) entries (shared-mix) the per-entry vectors
    are summed.
    """
    if not context:
        return T.Tensor(np.zeros(h.shape, dtype=h.dtype)), []
    betas = []
    total = None
    for states, mask in context:
        mixed, weights = T.dot_attention(states, mask, h)
        betas.append(weights)
        total = mixed if total is None else T.add(total, mixed)
    return total, betas


class TranslationModel:
    """Parameter container plus the forward computations for one variant."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator] = None,
                 dtype=np.float32,
                 params: Optional[dict[str, T.Tensor]] = None):
        self.cfg = cfg
        self.dtype = dtype
        shapes = parameter_shapes(cfg)
        if params is not None:
            for name, shape in shapes.items():
                if name not in params or params[name].shape != shape:
                    raise ValueError(f"parameter {name} missing or misshaped")
            self.params = {name: params[name] for name in shapes}
        else:
            if rng is None:
                raise ValueError("need an rng to initialize parameters")
            self.params = {name: _init_param(name, shape, rng, dtype)
                           for name, shape in shapes.items()}

    def param_list(self) -> list[T.Tensor]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- stacks: encoder, context -----------------------------------------

    def _cells(self, stack: str, layer: int
               ) -> list[tuple[T.Tensor, T.Tensor, T.Tensor]]:
        """The (w_x, w_h, b) of each cell of one layer of a stack."""
        return [tuple(self.params[f"{stack}_l{layer}{cell}_{part}"]
                      for part in ("wx", "wh", "b"))
                for cell in STACKS[stack]]

    def _dropout(self, x: T.Tensor, rng: Optional[np.random.Generator],
                 step_major: bool = False) -> T.Tensor:
        """Dropout is on exactly when an rng is given (training)."""
        return x if rng is None \
            else T.dropout(x, self.cfg.dropout, rng, step_major)

    def _stack(self, stack: str, emb_table: str, ids: np.ndarray, mask,
               rng, carry=(None, None), step_major: bool = False):
        """Run a two-layer stack over ids (B, N): embedding, dropout, one
        scan per layer from its (h, c) in `carry` (None: zeros), dropout
        between the layers (`step_major` as `T.dropout`).  Returns the top
        layer's states (B, N, H) and each layer's final (h, c)."""
        layer_in = self._dropout(T.embedding(self.params[emb_table], ids), rng)
        finals = []
        for layer, initial in zip((1, 2), carry):
            layer_out, h, c = T.lstm_scan(layer_in, mask,
                                          self._cells(stack, layer), initial)
            finals.append((h, c))
            layer_in = self._dropout(layer_out, rng, step_major) \
                if layer == 1 else layer_out
        return layer_in, finals

    def encode(self, src_ids: np.ndarray, src_mask: np.ndarray,
               rng: Optional[np.random.Generator] = None) -> EncoderStates:
        states, finals = self._stack("enc", "src_emb", src_ids, src_mask, rng)
        return EncoderStates(states=states, mask=src_mask, finals=finals)

    def context_states(self, left: Optional[Previous] = None,
                       prev: Optional[np.ndarray] = None,
                       rng: Optional[np.random.Generator] = None
                       ) -> list[tuple[T.Tensor, np.ndarray]]:
        """The (states, mask) pairs context attention reads, one per field
        of `left` this variant's `CONTEXTS` names: row r reads row
        `prev[r]` of it, fully masked where `prev[r]` is -1; none for a
        document's first sentence (`left` None).

        The gather copies, so shared variants read constant copies of the
        saved states and no gradient crosses the sentence boundary.
        """
        if left is None:
            return []
        reads = CONTEXTS[self.cfg.variant]
        if reads and prev is None:
            raise ValueError(f"{self.cfg.variant} needs a context, or rows "
                             "that name their previous sentences")
        context = []
        for name in reads:
            if getattr(left, name) is None:
                raise ValueError(f"{self.cfg.variant} reads the previous "
                                 f"sentence's {name}, which was not given")
            values, mask = getattr(left, name)
            values, mask = values[prev], mask[prev]  # fresh arrays
            mask[prev < 0] = 0.0
            if name in ("src", "trg"):
                states, _ = self._stack("ctx", f"{name}_emb", values, mask, rng)
            else:
                states = T.Tensor(values)
            context.append((states, mask))
        return context

    # -- decoder ----------------------------------------------------------

    def init_carry(self, enc: EncoderStates) -> list[tuple[T.Tensor, T.Tensor]]:
        """Decoder start state: the encoder's final per-layer states."""
        return [(h, c) for h, c in enc.finals]

    def _decoder(self, y_in: np.ndarray, carry, rng) -> T.Tensor:
        """Top-layer states (B, N, H) after each token of y_in (B, N), from
        `carry`.  No input feeding: the states never read attention.  As
        in decoding, padding is run through, and the dropout between the
        layers is drawn step by step."""
        return self._stack("dec", "trg_emb", y_in, np.ones(y_in.shape), rng,
                           carry, step_major=True)[0]

    def _readout(self, h: T.Tensor, enc: EncoderStates, context,
                 rows: Optional[np.ndarray] = None
                 ) -> tuple[T.Tensor, T.Tensor, list[T.Tensor]]:
        """Attentional states from decoder states h (B, N, H), one row per
        state in (B*N, H), or (B, H) from one state (B, H); `rows` keeps
        only the rows it names, before `attn_out`.  Also returns the
        current and context attention weights."""
        attn, alpha = T.dot_attention(enc.states, enc.mask, h)
        pieces = [h, attn]
        betas: list[T.Tensor] = []
        if self.cfg.uses_context:
            ctx, betas = context_attention(h, context)
            pieces.append(ctx)
        # 2-D rows, so attn_out is one GEMM rather than a gemv per row
        features = T.concat(pieces, axis=-1)
        features = T.reshape(features, (-1, features.shape[-1]))
        if rows is not None:
            features = T.embedding(features, rows)
        return T.tanh(T.matmul(features, self.params["attn_out"])), alpha, betas

    def decode_step(self, y_prev: np.ndarray, carry, enc: EncoderStates,
                    context) -> StepResult:
        """One decoding step from the previous target token ids (B,)."""
        layer_in = T.embedding(self.params["trg_emb"], np.asarray(y_prev))
        new_carry = []
        for layer, (h, c) in zip((1, 2), carry):
            [cell] = self._cells("dec", layer)
            h, c = T.lstm_cell(layer_in, h, c, *cell)
            new_carry.append((h, c))
            layer_in = h
        h_tilde, alpha, betas = self._readout(layer_in, enc, context)
        logits = T.matmul(h_tilde, self.params["out_proj"])
        return StepResult(probs=T.softmax(logits), carry=new_carry,
                          alpha=alpha, betas=betas)

    def leaves(self, rows, enc: EncoderStates, states) -> Previous:
        """What each of `rows` leaves for its document's next sentence;
        `states` are the decoder states over `rows.trg_in`, or None."""
        return Previous(
            src=(rows.src, rows.src_mask), enc=(enc.states.data, enc.mask),
            trg=(rows.trg, rows.trg_mask),
            dec=None if states is None else (states.data[:, 1:], rows.trg_mask))

    def forward_loss(self, rows, context=None,
                     rng: Optional[np.random.Generator] = None
                     ) -> tuple[T.Tensor, EncoderStates, Previous, float]:
        """Teacher-forced mean NLL over the target tokens of `rows` (a
        `corpus.SentenceRows`), every sentence of a batch as one pass.

        Row r reads what row `rows.prev[r]`, its document's previous
        sentence, `leaves` (a first sentence reads nothing), as decoding
        does.  A given `context`, as `context_states` gives it, is read
        instead: rows of one sentence index name no previous sentence.

        Returns (loss, encoder states, what each row leaves for the next,
        the number of target tokens counted).
        """
        counted = np.flatnonzero(rows.out_mask)
        if counted.size == 0:
            raise ValueError("forward_loss on rows with no target tokens")
        enc = self.encode(rows.src, rows.src_mask, rng)
        states = self._decoder(rows.trg_in, self.init_carry(enc), rng)
        left = self.leaves(rows, enc, states)
        if context is None:
            context = self.context_states(left, rows.prev, rng)
        h_tilde, _, _ = self._readout(states, enc, context, counted)
        loss = T.cross_entropy(h_tilde, self.params["out_proj"],
                               rows.trg_out.reshape(-1)[counted])
        return loss, enc, left, float(counted.size)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: TranslationModel, prefix: str) -> None:
    """Write `<prefix>.manifest` (text) and `<prefix>.bin` (little-endian f32)."""
    parent = Path(prefix).parent
    if str(parent) not in ("", "."):
        parent.mkdir(parents=True, exist_ok=True)
    cfg = model.cfg
    lines = [
        f"variant={cfg.variant}",
        f"emb_dim={cfg.emb_dim}",
        f"hidden_dim={cfg.hidden_dim}",
        f"src_vocab_size={cfg.src_vocab_size}",
        f"trg_vocab_size={cfg.trg_vocab_size}",
        "layers=2",
        f"dropout={cfg.dropout}",
    ]
    for name, p in model.params.items():
        dims = ",".join(str(d) for d in p.shape)
        lines.append(f"param\t{name}\t{dims}")
    with open(f"{prefix}.manifest", "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    with open(f"{prefix}.bin", "wb") as f:
        for p in model.params.values():
            f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(prefix: str) -> TranslationModel:
    """Read a checkpoint, checking its parameters against its config."""
    path = f"{prefix}.manifest"
    fields: dict[str, str] = {}
    order: list[tuple[str, tuple[int, ...]]] = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            try:
                if line.startswith("param\t"):
                    _, name, dims = line.split("\t")
                    order.append((name, tuple(map(int, dims.split(",")))))
                elif line:
                    key, value = line.split("=", 1)
                    fields[key] = value
            except ValueError:
                raise ValueError(f"{path}, line {number}: cannot read "
                                 f"{line!r}") from None
    if fields.get("layers") != "2":
        raise ValueError(f"{path}: layers={fields.get('layers')}, "
                         "only the two-layer architecture is supported")
    settings = {}
    for key, kind in (("variant", str), ("emb_dim", int), ("hidden_dim", int),
                      ("src_vocab_size", int), ("trg_vocab_size", int),
                      ("dropout", float)):
        try:
            settings[key] = kind(fields[key])
        except (KeyError, ValueError):
            raise ValueError(f"{path}: needs {key}= as {kind.__name__}, got "
                             f"{fields.get(key)!r}") from None
    try:
        cfg = ModelConfig(**settings)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    shapes = parameter_shapes(cfg)
    listed = dict(order)
    for name in {**shapes, **listed}:
        if name not in listed:
            problem = "is missing"
        elif name not in shapes:
            problem = f"is not part of a {cfg.variant} model"
        elif listed[name] != shapes[name]:
            problem = f"has shape {listed[name]}, the config needs " \
                f"{shapes[name]}"
        else:
            continue
        raise ValueError(f"{path}: parameter {name} {problem}")
    if order != list(shapes.items()):
        raise ValueError(f"{path}: parameters are not listed "
                         "once each in canonical order")
    blob = np.fromfile(f"{prefix}.bin", dtype="<f4")
    if blob.size != param_count(cfg):
        raise ValueError(f"{prefix}.bin holds {blob.size} values, the "
                         f"config needs {param_count(cfg)}")
    params: dict[str, T.Tensor] = {}
    offset = 0
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        chunk = blob[offset:offset + size].reshape(shape)
        params[name] = T.Tensor(chunk, requires_grad=True)
        offset += size
    return TranslationModel(cfg, params=params)
