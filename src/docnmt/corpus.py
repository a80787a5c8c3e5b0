"""Document-structured parallel corpora.

File format: paired plain-text files (`name.src` / `name.trg`), one
sentence per line, documents separated by blank lines.  Hypothesis files
share the format with one line per source sentence, so an empty
hypothesis is an empty line; they are read along the reference's sentence
counts (`load_blocks(path, lengths)`).  Synthetic corpora
additionally carry a `name.meta` file recording each document's hidden
synonym choice and which sentences contain the ambiguous slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import bpe as B

SRC_ENTITY = "ent"
PRONOUN = "pro"
SYNONYMS = ("syna", "synb")
SRC_MARKERS = ("mrka", "mrkb")
PERIOD = "."


@dataclass
class Document:
    """Ordered parallel sentence pairs; the unit of translation context."""

    doc_id: str
    pairs: list[tuple[list[str], list[str]]]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError(f"document {self.doc_id} has no sentence pairs")

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def src_sentences(self) -> list[list[str]]:
        return [src for src, _ in self.pairs]

    @property
    def trg_sentences(self) -> list[list[str]]:
        return [trg for _, trg in self.pairs]


def _read_blocks(path) -> list[list[str]]:
    blocks: list[list[str]] = []
    current: list[str] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.strip():
                current.append(line)
            elif current:
                blocks.append(current)
                current = []
    if current:
        blocks.append(current)
    return blocks


def _read_along(path, lengths: Sequence[int]) -> list[list[str]]:
    """Document i is the next lengths[i] lines, blank ones included (an
    empty sentence); exactly one blank line separates documents."""
    blocks = []
    with open(path, encoding="utf-8") as f:
        lines = (line.rstrip("\n") for line in f)
        for i, n in enumerate(lengths):
            block = [line for _, line in zip(range(n), lines)]
            if len(block) < n:
                raise ValueError(f"{path}: the file ends after {len(block)} "
                                 f"of the {n} sentences of document {i}")
            blocks.append(block)
            last = i == len(lengths) - 1
            after = next(lines, None)
            if after is not None and (last or after.strip()):
                raise ValueError(
                    f"{path}: document {i} is not {n} sentences followed by "
                    + ("the end of the file" if last else "a blank line"))
    return blocks


def load_blocks(path, lengths: Optional[Sequence[int]] = None
                ) -> list[list[list[str]]]:
    """Documents as token lists, one file only.

    Blank lines separate documents.  Given the sentence count of each
    document (`lengths`, e.g. from the reference), the file is read along
    it instead, so an empty line inside a document is an empty sentence;
    a file that does not have that structure raises a ValueError naming
    the file and the first document that differs.
    """
    blocks = _read_blocks(path) if lengths is None \
        else _read_along(path, lengths)
    return [[line.split() for line in block] for block in blocks]


def load_documents(src_path, trg_path) -> list[Document]:
    src_blocks = _read_blocks(src_path)
    trg_blocks = _read_blocks(trg_path)
    if len(src_blocks) != len(trg_blocks):
        raise ValueError(
            f"{trg_path}: document count mismatch: {len(src_blocks)} source "
            f"blocks vs {len(trg_blocks)} target blocks")
    docs = []
    for idx, (sb, tb) in enumerate(zip(src_blocks, trg_blocks)):
        if len(sb) != len(tb):
            raise ValueError(f"{trg_path}: document {idx} has {len(tb)} "
                             f"sentences, the source has {len(sb)}")
        pairs = [(s.split(), t.split()) for s, t in zip(sb, tb)]
        docs.append(Document(doc_id=f"d{idx:05d}", pairs=pairs))
    return docs


def save_blocks(blocks: Sequence[Sequence[Sequence[str]]], path) -> None:
    """Write documents of token lists: one sentence per line (an empty
    sentence is an empty line), one blank line between documents."""
    with open(path, "w", encoding="utf-8") as f:
        for i, block in enumerate(blocks):
            if i:
                f.write("\n")
            for sent in block:
                f.write(" ".join(sent) + "\n")


def save_documents(docs: Sequence[Document], src_path, trg_path) -> None:
    save_blocks([d.src_sentences for d in docs], src_path)
    save_blocks([d.trg_sentences for d in docs], trg_path)


def filter_documents(docs: Sequence[Document], max_len: int = 100) -> list[Document]:
    """Drop a whole document if any sentence on either side exceeds max_len."""
    kept = []
    for doc in docs:
        if all(len(s) <= max_len and len(t) <= max_len for s, t in doc.pairs):
            kept.append(doc)
    return kept


def segment_documents(docs: Sequence[Document], src_model: B.BpeModel,
                      trg_model: B.BpeModel) -> list[Document]:
    return [
        Document(doc.doc_id,
                 [(B.apply_bpe(s, src_model), B.apply_bpe(t, trg_model))
                  for s, t in doc.pairs])
        for doc in docs
    ]


# ---------------------------------------------------------------------------
# batching


@dataclass
class SentenceRows:
    """Padded matrices with one sentence per row: every sentence of a
    batch (`flat_batch`, which training and decoding read), or sentence
    index i across a batch's documents.  An empty row's masks are 0."""

    src: np.ndarray        # (B, M) int ids, PAD on unused slots
    src_mask: np.ndarray   # (B, M) 1.0 on real tokens
    trg: np.ndarray        # (B, N) gold target ids, no specials
    trg_mask: np.ndarray   # (B, N)
    trg_in: np.ndarray     # (B, N+1) BOS + gold
    trg_out: np.ndarray    # (B, N+1) gold + EOS
    out_mask: np.ndarray   # (B, N+1) counts gold tokens plus the EOS step
    # (B,) the row of the same document's previous sentence, -1 for a
    # first sentence; only `flat_batch` rows name it
    prev: Optional[np.ndarray] = None


@dataclass
class DocumentBatch:
    positions: list[SentenceRows]


def pad_rows(rows: Sequence, width: Optional[int] = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of token ids (as int32), or arrays of per-token vectors,
    zero-padded (PAD is 0) to `width` columns, by default the longest row
    and at least one; also returns the float32 mask of real entries."""
    lengths = np.array([len(r) for r in rows])
    if width is None:
        width = max(1, lengths.max())
    mask = np.arange(width) < lengths[:, None]
    if isinstance(rows[0], np.ndarray):
        values = np.concatenate(rows)
    else:
        values = np.fromiter(chain.from_iterable(rows), dtype=np.int32)
    out = np.zeros(mask.shape + values.shape[1:], dtype=values.dtype)
    out[mask] = values
    return out, mask.astype(np.float32)


def _sentence_rows(src_rows: Sequence[list[int]],
                   trg_rows: Sequence[list[int]],
                   prev: Optional[Sequence[int]] = None) -> SentenceRows:
    """Pad one set of sentence rows, given as source and target ids."""
    src, src_mask = pad_rows(src_rows)
    trg, trg_mask = pad_rows(trg_rows)
    n = trg.shape[1]
    trg_in, _ = pad_rows([[B.BOS] + r for r in trg_rows], n + 1)
    trg_out, out_mask = pad_rows([r + [B.EOS] if r else [] for r in trg_rows],
                                 n + 1)
    return SentenceRows(
        src=src, src_mask=src_mask, trg=trg, trg_mask=trg_mask,
        trg_in=trg_in, trg_out=trg_out, out_mask=out_mask,
        prev=None if prev is None else np.asarray(prev, dtype=np.int64))


def build_batch(docs: Sequence[Document], src_vocab: B.Vocabulary,
                trg_vocab: B.Vocabulary) -> DocumentBatch:
    """One `SentenceRows` per sentence index, a row per document; a
    document out of sentences is an empty row, all of its masks 0."""
    max_len = max(len(d) for d in docs)
    positions = []
    for i in range(max_len):
        src_rows, trg_rows = [], []
        for doc in docs:
            s, t = doc.pairs[i] if i < len(doc) else ([], [])
            src_rows.append(src_vocab.encode(s))
            trg_rows.append(trg_vocab.encode(t))
        positions.append(_sentence_rows(src_rows, trg_rows))
    return DocumentBatch(positions=positions)


def flat_batch(docs: Sequence[Document], src_vocab: B.Vocabulary,
               trg_vocab: B.Vocabulary) -> SentenceRows:
    """Every sentence of the documents as one row, document by document,
    each row naming its document's previous sentence in `prev`."""
    src_rows, trg_rows, prev = [], [], []
    for doc in docs:
        for i, (s, t) in enumerate(doc.pairs):
            prev.append(len(src_rows) - 1 if i else -1)
            src_rows.append(src_vocab.encode(s))
            trg_rows.append(trg_vocab.encode(t))
    return _sentence_rows(src_rows, trg_rows, prev)


def make_batches(docs: Sequence[Document], src_vocab: B.Vocabulary,
                 trg_vocab: B.Vocabulary, max_docs: int = 128,
                 rng: Optional[np.random.Generator] = None
                 ) -> list[SentenceRows]:
    """Shuffle documents, then group them into training batches of at most
    max_docs, each a `flat_batch`."""
    if not docs:
        raise ValueError("make_batches requires a non-empty document list")
    if rng is None:
        raise ValueError("shuffling requires an rng")
    order = list(rng.permutation(len(docs)))
    batches = []
    for start in range(0, len(order), max_docs):
        group = [docs[j] for j in order[start:start + max_docs]]
        batches.append(flat_batch(group, src_vocab, trg_vocab))
    return batches


# ---------------------------------------------------------------------------
# synthetic context-dependent corpus


@dataclass
class SynthConfig:
    """Generator settings for the ambiguous-synonym corpus.

    Each document flips a hidden coin.  The coin picks the target
    rendering of an ambiguous entity (one of two synonyms) and, with it, a
    target-side register: filler word k is rendered "wk" under one choice
    and "vk" under the other, the way a discourse-level register decision
    colors every sentence.  Source fillers are always "wk", so nothing on
    the source side of ambiguous sentences reveals the coin.

    trg-informative: sentence 1 translates an entity token into the chosen
    synonym; later sentences show only a pronoun on the source side, so
    the correct synonym is recoverable from target-side context alone.
    src-informative: marker sentences (whose source carries a
    choice-revealing marker token) alternate with ambiguous ones, so the
    preceding source sentence disambiguates instead.
    """

    mode: str = "trg-informative"
    num_documents: int = 1000
    sentences_per_doc: tuple[int, int] = (2, 4)
    num_fillers: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("trg-informative", "src-informative"):
            raise ValueError(f"unknown synthetic mode: {self.mode}")
        lo, hi = self.sentences_per_doc
        if lo < 2 or hi < lo:
            raise ValueError("sentences_per_doc must satisfy 2 <= lo <= hi")
        for name in ("num_documents", "num_fillers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")


@dataclass
class SlotMeta:
    """Hidden choice behind one document, for scoring the ambiguous slots."""

    doc_id: str
    choice: str                      # the synonym token the document uses
    slot_indices: list[int] = field(default_factory=list)


def generate_synthetic(cfg: SynthConfig) -> tuple[list[Document], list[SlotMeta]]:
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.sentences_per_doc
    docs, metas = [], []
    for d in range(cfg.num_documents):
        length = int(rng.integers(lo, hi + 1))
        choice_idx = int(rng.integers(2))
        synonym = SYNONYMS[choice_idx]
        marker = SRC_MARKERS[choice_idx]
        register = "w" if choice_idx == 0 else "v"
        pairs, slots = [], []
        for i in range(length):
            picked = [int(k) for k in
                      rng.integers(0, cfg.num_fillers, size=int(rng.integers(2, 7)))]
            src_fill = [f"w{k}" for k in picked]
            trg_fill = [f"{register}{k}" for k in picked]
            if cfg.mode == "trg-informative":
                key = SRC_ENTITY if i == 0 else PRONOUN
                src = [key] + src_fill + [PERIOD]
                trg = [synonym] + trg_fill + [PERIOD]
                if i > 0:
                    slots.append(i)
            else:
                if i % 2 == 0:
                    src = [marker] + src_fill + [PERIOD]
                    trg = [synonym] + trg_fill + [PERIOD]
                else:
                    src = [PRONOUN] + src_fill + [PERIOD]
                    trg = [synonym] + trg_fill + [PERIOD]
                    slots.append(i)
            pairs.append((src, trg))
        doc_id = f"d{d:05d}"
        docs.append(Document(doc_id, pairs))
        metas.append(SlotMeta(doc_id, synonym, slots))
    return docs, metas


def save_meta(metas: Sequence[SlotMeta], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for m in metas:
            slots = ",".join(str(i) for i in m.slot_indices)
            f.write(f"{m.doc_id}\t{m.choice}\t{slots}\n")


def load_meta(path) -> list[SlotMeta]:
    metas = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                doc_id, choice, slots = line.split("\t")
                indices = [int(s) for s in slots.split(",")] if slots else []
            except ValueError:
                raise ValueError(f"{path}, line {number}: cannot read "
                                 f"{line!r}") from None
            if any(i < 0 for i in indices):
                raise ValueError(f"{path}, line {number}: negative slot "
                                 f"index in {slots!r}")
            metas.append(SlotMeta(doc_id, choice, indices))
    return metas
