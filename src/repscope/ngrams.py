"""Cross-summary repeating n-gram index, and paired-input window matches.

An n-gram (n >= min_n, default 4) is *repeating* when it occurs in two or
more distinct summaries of a corpus. The index maps each repeating n-gram
to the full set of summary ids containing it, for every length at which
repeats exist. Membership counts summaries, not occurrences: five copies
inside one summary contribute a single id. The same window classes count
the summary n-grams that occur in a record's own input (abstractiveness).
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, SummaryRecord

NGram = tuple[str, ...]


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


def _encode(docs: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The documents' tokens end to end as vocabulary ids, the document of
    each token, and each document's start in that array."""
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    vocab: defaultdict[str, int] = defaultdict(count().__next__)  # token -> id, in one pass
    token_ids = map(vocab.__getitem__, chain.from_iterable(docs))
    ids = np.fromiter(token_ids, dtype=np.int64, count=int(lengths.sum()))
    doc = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
    return ids, doc, np.cumsum(lengths) - lengths


def _shared_levels(key: np.ndarray, doc: np.ndarray, n_docs: int, max_n: int = 0) -> Iterator:
    """Yield each window length n, from 1 up, at which two or more documents
    hold a common window, as (n, pos, doc, cls, keep, left, right, pairs,
    pair_cls, doc_counts): per candidate window in position order, its start
    in the flat array, document, class, whether two documents hold that
    class, and its halves' classes (None at n = 1); every distinct (class,
    document) pair as class * n_docs + document, ascending, and its class;
    the number of documents of each class.

    key holds one value per token, equal exactly when two tokens are, and
    doc its document. Classes are equal exactly when two windows spell the
    same tokens: the (n+1)-window at p gets the rank of the pair (class of
    the n-window at p, class of the n-window at p + 1). Documents sharing a
    window share both its halves, so candidates at n+1 only start where two
    adjacent shared n-windows start in one document, which keeps long
    corpora cheap. The scan stops at the first n with no shared class, or
    after max_n when it is given.
    """
    # A class is below the number of windows, so with fewer than about 3e9
    # tokens and documents the keys left * n_classes + right and class *
    # n_docs + doc stay below 2**63.
    pos = np.arange(key.size, dtype=np.int64)
    left = right = None
    n = 1
    while key.size:
        order = np.argsort(key)
        sorted_cls = np.cumsum(_run_starts(key[order])) - 1
        n_classes = int(sorted_cls[-1]) + 1
        pairs = _distinct(sorted_cls * n_docs + doc[order])
        pair_cls = pairs // n_docs
        doc_counts = np.bincount(pair_cls, minlength=n_classes)
        shared = doc_counts >= 2
        if not shared.any():
            return
        cls = np.empty_like(sorted_cls)
        cls[order] = sorted_cls
        keep = shared[cls]
        yield n, pos, doc, cls, keep, left, right, pairs, pair_cls, doc_counts
        if n == max_n:
            return

        # next candidates: adjacent shared windows within one document
        pos, doc, cls = pos[keep], doc[keep], cls[keep]
        adjacent = (pos[1:] == pos[:-1] + 1) & (doc[1:] == doc[:-1])
        left = cls[:-1][adjacent]
        right = cls[1:][adjacent]
        pos = pos[:-1][adjacent]
        doc = doc[:-1][adjacent]
        key = left * n_classes + right
        n += 1


def build_repetition_index(corpus: Corpus, min_n: int = 4) -> RepetitionIndex:
    """Index every n-gram (n >= min_n) present in two or more summaries.

    Windows are named by the exact classes of _shared_levels, one document
    per summary. Lengths below min_n only prune candidates; the scan stops
    at the first length with no repeats, which is safe because a repeated
    (n+1)-gram implies both of its n-sub-grams repeat in the same summaries.
    Eq.1 is tallied in the same pass (see RepetitionIndex.tallies).
    """
    if min_n < 1:
        raise ValueError(f"min_n must be >= 1, got {min_n}")

    summary_ids = [rec.id for rec in corpus.records]
    token_lists = [rec.summary.tokens for rec in corpus.records]
    n_docs = len(token_lists)
    key, doc, starts = _encode(token_lists)

    entries: dict[NGram, frozenset[str]] = {}
    id_sets: dict[frozenset[str], frozenset[str]] = {}  # one object per distinct set
    # Eq.1 terms per summary: all types, and the part covered by a longer type
    m_all = np.zeros(n_docs, dtype=np.int64)
    raw_all = np.zeros(n_docs, dtype=np.int64)
    m_covered = np.zeros(n_docs, dtype=np.int64)
    raw_covered = np.zeros(n_docs, dtype=np.int64)
    max_observed = 0
    levels = _shared_levels(key, doc, n_docs)
    for n, pos, doc, cls, keep, left, right, pairs, pair_cls, doc_counts in levels:
        if n >= min_n:
            max_observed = n
            repeats = doc_counts >= 2
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

            # any window of a class spells its n-gram; take one per class
            window = np.empty(doc_counts.size, dtype=np.int64)
            window[cls] = np.arange(cls.size)
            first = window[repeats]
            first_doc = doc[first]
            offsets = (pos[first] - starts[first_doc]).tolist()
            pair_ids = list(map(summary_ids.__getitem__, pair_doc.tolist()))
            counts = doc_counts[repeats]
            ends = np.cumsum(counts).tolist()
            for d, off, end, size in zip(first_doc.tolist(), offsets, ends, counts.tolist()):
                ids = frozenset(pair_ids[end - size : end])
                entries[token_lists[d][off : off + n]] = id_sets.setdefault(ids, ids)
        prev_counts = doc_counts

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


def paired_window_matches(records: Sequence[SummaryRecord], max_n: int) -> dict[int, int]:
    """For each n up to max_n at which any match exists, how many summary
    n-windows, over all the records, also occur in their own record's input.
    Record r's summary is document 2r and its input 2r + 1, and a token's key
    is its id * len(records) + r, so a class that two documents hold is
    exactly an n-gram found in both the summary and the input of one record."""
    n_records = len(records)
    key, doc, _ = _encode([seq.tokens for rec in records for seq in (rec.summary, rec.input)])
    matches = {}
    levels = _shared_levels(key * n_records + doc // 2, doc, 2 * n_records, max_n)
    for n, _, doc, _, keep, *_ in levels:
        matches[n] = int(np.count_nonzero(doc[keep] % 2 == 0))
    return matches


class RepeatRow(NamedTuple):
    """One repeating n-gram as the repeat reports print it: the summaries
    holding it, how many, and the corpus size for count/total displays."""

    ngram: NGram
    count: int
    corpus_size: int
    ids: frozenset[str]

    @property
    def example_id(self) -> str:
        """The summary the reports quote for this n-gram: the smallest id."""
        return min(self.ids)


def top_repeats(index: RepetitionIndex, limit: int, min_count: int = 2) -> list[RepeatRow]:
    """Most widely shared n-grams, count descending; ties go to the longer
    n-gram, then lexicographic token order. Token tuples are unique, so the
    order is total and only the rows kept are ranked."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    counted = ((gram, ids) for gram, ids in index.entries.items() if len(ids) >= min_count)
    top = heapq.nsmallest(limit, counted, key=lambda item: (-len(item[1]), -len(item[0]), item[0]))
    return [RepeatRow(gram, len(ids), index.corpus_size, ids) for gram, ids in top]


def index_export_lines(rows: Sequence[RepeatRow], *, with_ids: bool = False) -> Iterator[str]:
    """JSON-Lines export of the rows top_repeats returned, one object per
    n-gram; the containing summary ids only on request."""
    for row in rows:
        obj: dict = {"ngram": list(row.ngram), "n": len(row.ngram), "count": row.count}
        if with_ids:
            obj["ids"] = sorted(row.ids)
        yield json.dumps(obj, ensure_ascii=False)
