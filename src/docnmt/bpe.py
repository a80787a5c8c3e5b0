"""Byte-pair-encoding subword segmentation and vocabulary construction.

Merges are learned per language side on whitespace-tokenized text.  Words
are symbol sequences ending in a separate end-of-word marker; segmented
output marks word-internal boundaries with a trailing "@@" so that
removing "@@ " joints recovers the original text exactly.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
import heapq
from itertools import chain
from typing import Iterable, Sequence

EOW = "</w>"
CONT = "@@"

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")


@dataclass
class BpeModel:
    """Ordered merge rules; earlier rules apply first."""

    merges: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        # word -> its pieces, "@@" on all but the last: apply_bpe segments
        # each word type once, and its tokens share these strings
        self._marked: dict[str, tuple[str, ...]] = {}

    @property
    def num_merges(self) -> int:
        return len(self.merges)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for left, right in self.merges:
                f.write(f"{left} {right}\n")

    def segment_word(self, word: str) -> tuple[str, ...]:
        """Split one word into subword pieces (without @@ markers)."""
        symbols = list(word) + [EOW]
        while len(symbols) > 1:
            best = None
            best_rank = len(self.merges)
            for pair in zip(symbols, symbols[1:]):
                rank = self._ranks.get(pair, best_rank)
                if rank < best_rank:
                    best, best_rank = pair, rank
            if best is None:
                break
            symbols = _merge_symbols(symbols, best)
        if symbols[-1] == EOW:
            symbols = symbols[:-1]
        elif symbols[-1].endswith(EOW):
            symbols = symbols[:-1] + [symbols[-1][: -len(EOW)]]
        return tuple(symbols)

    def _mark(self, word: str) -> tuple[str, ...]:
        """`word`'s pieces as apply_bpe emits them, cached."""
        *inner, last = self.segment_word(word)
        pieces = self._marked[word] = (*[p + CONT for p in inner], last)
        return pieces


def _merge_symbols(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def learn_bpe(sentences: Iterable[Sequence[str]], num_merges: int) -> BpeModel:
    """Learn merge rules by greedy most-frequent-pair counting.

    Ties break lexicographically on the pair so learning is deterministic.
    Pairs are counted once; a merge then recounts only the words that
    contained the merged pair (Sennrich et al. 2016), found through a
    pair -> word-index list, and a heap of (-count, pair) entries, stale
    ones skipped when popped, yields the next best pair.
    """
    if num_merges < 0:
        raise ValueError(f"num_merges must be >= 0, got {num_merges}")
    word_freq = Counter(chain.from_iterable(sentences))
    if not word_freq:
        raise ValueError("cannot learn BPE from an empty corpus")

    words = [list(w) + [EOW] for w in word_freq]
    freqs = list(word_freq.values())
    pair_freq: dict[tuple[str, str], int] = {}
    count = pair_freq.get
    # lists the words that contain each pair, and possibly some that no
    # longer do (a merge finds nothing to join in those)
    where: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, (symbols, freq) in enumerate(zip(words, freqs)):
        for pair in zip(symbols, symbols[1:]):
            pair_freq[pair] = count(pair, 0) + freq
            where[pair].append(i)
    heap = [(-c, pair) for pair, c in pair_freq.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        while heap and count(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        best = heapq.heappop(heap)[1]
        merges.append(best)
        delta: dict[tuple[str, str], int] = {}
        change = delta.get
        for i in where.pop(best):
            symbols = words[i]
            merged = _merge_symbols(symbols, best)
            if len(merged) == len(symbols):
                continue
            words[i], freq = merged, freqs[i]
            old = list(zip(symbols, symbols[1:]))
            new = list(zip(merged, merged[1:]))
            for pair in old:
                delta[pair] = change(pair, 0) - freq
            for pair in new:
                delta[pair] = change(pair, 0) + freq
            for pair in set(new).difference(old):
                where[pair].append(i)
        for pair, d in delta.items():
            if d:
                c = count(pair, 0) + d
                if c:
                    pair_freq[pair] = c
                    heapq.heappush(heap, (-c, pair))
                else:
                    del pair_freq[pair]
                    where.pop(pair, None)
    return BpeModel(merges)


def apply_bpe(tokens: Sequence[str], model: BpeModel) -> list[str]:
    """Segment a tokenized sentence; non-final pieces carry the @@ marker."""
    marked = model._marked
    out: list[str] = []
    for word in tokens:
        out += marked.get(word) or model._mark(word)
    return out


def remove_bpe(tokens: Sequence[str]) -> list[str]:
    """Invert apply_bpe: glue @@-marked pieces back into words."""
    text = " ".join(tokens).replace(CONT + " ", "")
    if text.endswith(CONT):
        text = text[: -len(CONT)]
    return text.split()


class Vocabulary:
    """Token-to-id map with pad/bos/eos/unk reserved at ids 0-3; `path`
    is the file it was loaded from, if any."""

    def __init__(self, tokens: Sequence[str], path=None):
        self.path = path
        self.tokens = list(RESERVED) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for token in self.tokens[len(RESERVED):]:
                f.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        seen = dict.fromkeys(RESERVED, "a reserved token")
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                token = line.rstrip("\n")
                if token in seen:
                    raise ValueError(f"{path}, line {number}: token "
                                     f"{token!r} repeats {seen[token]}")
                if token:
                    seen[token] = f"line {number}"
        return cls(list(seen)[len(RESERVED):], path)


def build_vocab(segmented_sentences: Iterable[Sequence[str]]) -> Vocabulary:
    """All observed subwords, ordered by frequency then lexicographically."""
    freq = Counter(chain.from_iterable(segmented_sentences))
    ordered = sorted(freq, key=lambda t: (-freq[t], t))
    return Vocabulary(ordered)
