"""Cross-summary repeating n-gram index.

An n-gram (n >= min_n, default 4) is *repeating* when it occurs in two or
more distinct summaries of a corpus. The index maps each repeating n-gram
to the full set of summary ids containing it, for every length at which
repeats exist. Membership counts summaries, not occurrences: five copies
inside one summary contribute a single id.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, TokenSequence
from .errors import EmptyCorpusError

NGram = tuple[str, ...]


def extract_ngrams(seq: TokenSequence | Sequence[str], n: int) -> list[NGram]:
    """All contiguous length-n windows, in order; empty when the sequence is
    shorter than n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    tokens = tuple(getattr(seq, "tokens", seq))
    # zip over n shifted copies builds every window in C, not one slice per position
    return list(zip(*[tokens[i:] for i in range(n)]))


@dataclass(frozen=True)
class RepetitionIndex:
    """Repeating n-grams of one corpus, keyed by exact token identity.

    Every entry's id set has size >= 2. max_observed_n is the longest
    length with any repeat (0 when the index is empty). tallies is keyed
    by every indexed summary id, so score lookups can reject records from
    other corpora; each value holds the summary's Eq.1 terms as counted
    while the index was built: (m, raw_sum) over all of its distinct
    repeating types, then (m, raw_sum) over only the types not contained in
    a longer repeating type of the same summary.
    """

    entries: dict[NGram, frozenset[str]]
    min_n: int
    max_observed_n: int
    corpus_size: int
    tallies: dict[str, tuple[int, int, int, int]]

    def __len__(self) -> int:
        return len(self.entries)


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a new value starts in a sorted array."""
    starts = np.empty(sorted_values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values. np.unique hashes int64 keys in numpy 2.x,
    which measured over ten times slower than this sort on index keys."""
    values = np.sort(values)
    return values[_run_starts(values)]


def build_repetition_index(corpus: Corpus, min_n: int = 4) -> RepetitionIndex:
    """Index every n-gram (n >= min_n) present in two or more summaries.

    All summary tokens are laid end to end in one id array. Each window
    gets an integer class naming its tokens exactly: a token's class is its
    vocabulary id, and the class of the (n+1)-window at p is the rank of
    the pair (class of the n-window at p, class of the n-window at p + 1),
    since those two halves fix every token. Lengths grow one at a time from
    1 (lengths below min_n only prune candidates); the scan stops at the
    first length with no repeats, which is safe because a repeated
    (n+1)-gram implies both of its n-sub-grams repeat in the same
    summaries. For the same reason, candidate windows at length n+1 only
    start where two adjacent repeating n-grams start in one summary, which
    keeps long corpora cheap. Eq.1 is tallied in the same pass (see
    RepetitionIndex.tallies).
    """
    if min_n < 1:
        raise ValueError(f"min_n must be >= 1, got {min_n}")
    if not corpus.records:
        raise EmptyCorpusError(f"corpus {corpus.name!r} has no records to index")

    summary_ids = [rec.id for rec in corpus.records]
    token_lists = [rec.summary.tokens for rec in corpus.records]
    n_docs = len(token_lists)
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=n_docs)
    starts = np.cumsum(lengths) - lengths
    vocab: defaultdict[str, int] = defaultdict(count().__next__)  # token -> id, in one pass
    # Per surviving window, in position order: start in the flat array,
    # summary index, and the key whose rank is the window's class. A class
    # is below the number of windows, so with fewer than about 3e9 tokens
    # and summaries the keys left * n_classes + right and class * n_docs +
    # doc stay below 2**63.
    key = np.fromiter(
        map(vocab.__getitem__, chain.from_iterable(token_lists)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    pos = np.arange(key.size, dtype=np.int64)
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)

    entries: dict[NGram, frozenset[str]] = {}
    # Eq.1 terms per summary: all types, and the part covered by a longer type
    m_all = np.zeros(n_docs, dtype=np.int64)
    raw_all = np.zeros(n_docs, dtype=np.int64)
    m_covered = np.zeros(n_docs, dtype=np.int64)
    raw_covered = np.zeros(n_docs, dtype=np.int64)
    max_observed = 0
    n = 1
    while key.size:
        order = np.argsort(key)
        new_class = _run_starts(key[order])
        sorted_cls = np.cumsum(new_class) - 1
        n_classes = int(sorted_cls[-1]) + 1
        # distinct (class, summary) pairs, sorted by class and then summary
        pairs = _distinct(sorted_cls * n_docs + doc[order])
        pair_cls = pairs // n_docs
        doc_counts = np.bincount(pair_cls, minlength=n_classes)
        repeats = doc_counts >= 2
        if not repeats.any():
            break
        cls = np.empty_like(sorted_cls)
        cls[order] = sorted_cls
        keep = repeats[cls]

        if n >= min_n:
            max_observed = n
            in_repeat = repeats[pair_cls]
            pair_doc = (pairs % n_docs)[in_repeat]
            np.add.at(m_all, pair_doc, 1)
            np.add.at(raw_all, pair_doc, doc_counts[pair_cls[in_repeat]])
            if n > min_n:
                # an (n-1)-type of a summary lies inside a longer repeating
                # type of it exactly when it is a half of a repeating
                # n-window there
                kept_doc = doc[keep]
                covered = _distinct(
                    np.concatenate((left[keep], right[keep])) * n_docs
                    + np.concatenate((kept_doc, kept_doc))
                )
                covered_doc = covered % n_docs
                np.add.at(m_covered, covered_doc, 1)
                np.add.at(raw_covered, covered_doc, prev_counts[covered // n_docs])

            # any window of a class spells its n-gram; take the first in sort order
            first = order[new_class & repeats[sorted_cls]]
            first_doc = doc[first]
            offsets = (pos[first] - starts[first_doc]).tolist()
            pair_ids = list(map(summary_ids.__getitem__, pair_doc.tolist()))
            counts = doc_counts[repeats]
            ends = np.cumsum(counts).tolist()
            for d, off, end, size in zip(first_doc.tolist(), offsets, ends, counts.tolist()):
                entries[token_lists[d][off : off + n]] = frozenset(pair_ids[end - size : end])

        # next candidates: adjacent surviving windows within one summary
        pos, doc, cls = pos[keep], doc[keep], cls[keep]
        adjacent = (pos[1:] == pos[:-1] + 1) & (doc[1:] == doc[:-1])
        left = cls[:-1][adjacent]
        right = cls[1:][adjacent]
        pos = pos[:-1][adjacent]
        doc = doc[:-1][adjacent]
        key = left * n_classes + right
        prev_counts = doc_counts
        n += 1

    tallies = dict(
        zip(
            summary_ids,
            zip(
                m_all.tolist(),
                raw_all.tolist(),
                (m_all - m_covered).tolist(),
                (raw_all - raw_covered).tolist(),
            ),
        )
    )
    return RepetitionIndex(
        entries=entries,
        min_n=min_n,
        max_observed_n=max_observed,
        corpus_size=n_docs,
        tallies=tallies,
    )


class RepeatRow(NamedTuple):
    ngram: NGram
    count: int
    corpus_size: int


def top_repeats(index: RepetitionIndex, limit: int, min_count: int = 2) -> list[RepeatRow]:
    """Most widely shared n-grams, count descending; ties go to the longer
    n-gram, then lexicographic token order. Each row carries the corpus
    size for count/total displays."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    counted = [(gram, len(ids)) for gram, ids in index.entries.items() if len(ids) >= min_count]
    counted.sort(key=lambda item: (-item[1], -len(item[0]), item[0]))
    return [RepeatRow(gram, count, index.corpus_size) for gram, count in counted[:limit]]


def index_export_lines(
    index: RepetitionIndex, rows: Sequence[RepeatRow], *, with_ids: bool = False
) -> Iterator[str]:
    """JSON-Lines export of the given rows of the index (as top_repeats
    returned them), one object per n-gram. Containing summary ids are
    included only on request."""
    for row in rows:
        obj: dict = {"ngram": list(row.ngram), "n": len(row.ngram), "count": row.count}
        if with_ids:
            obj["ids"] = sorted(index.entries[row.ngram])
        yield json.dumps(obj, ensure_ascii=False)
