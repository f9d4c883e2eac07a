"""Cross-summary repeating n-gram index, and paired-input window matches.

An n-gram (n >= min_n, default 4) is *repeating* when it occurs in two or
more distinct summaries of a corpus. The index holds one row per repeating
n-gram, for every length at which repeats exist: its length, where one of
its windows lies, and the full set of summaries containing it, all as numpy
arrays. Token tuples and id sets are made only for the rows read: the
``entries`` map on first access, or the rows ``top_repeats`` returns.
Membership counts summaries, not occurrences: five copies inside one
summary contribute a single id. The index and the count of summary n-grams
that occur in a record's own input (abstractiveness) read one kernel,
_shared_levels, which keeps, length by length, the windows whose n-gram lies
in two or more documents, and reads the corpus's token ids as they are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, SummaryRecord, TokenSequence

NGram = tuple[str, ...]


@dataclass(frozen=True, eq=False)
class RepetitionIndex:
    """Repeating n-grams of one corpus, keyed by exact token identity.

    Row i is one repeating n-gram: row_n[i] tokens long, spelled by the
    window at offset row_offset[i] of document row_doc[i] (the index reads
    its ids there and spells them in the corpus vocabulary), and held by
    row_count[i] >= 2 summaries, whose document numbers are row i's slice of
    pair_docs: the row_count[i] values after those of rows 0..i-1. Document
    d is the summary with token sequence documents[d] and id summary_ids[d],
    in corpus order. Rows run by n, then by their token ids. max_observed_n
    is the longest length with any repeat (0 when the index is empty).
    tallies is keyed by every indexed summary id, so score lookups can
    reject records from other corpora; each value holds the summary's Eq.1
    terms: (m, raw_sum) over all of its distinct repeating types, which are
    the rows holding it and the sum of their counts, then (m, raw_sum) over
    only the types not contained in a longer repeating type of the same
    summary. Indexes compare by identity.
    """

    min_n: int
    max_observed_n: int
    summary_ids: tuple[str, ...] = field(repr=False)
    documents: tuple[TokenSequence, ...] = field(repr=False)
    row_n: np.ndarray = field(repr=False)
    row_doc: np.ndarray = field(repr=False)
    row_offset: np.ndarray = field(repr=False)
    row_count: np.ndarray = field(repr=False)
    pair_docs: np.ndarray = field(repr=False)
    tallies: dict[str, tuple[int, int, int, int]] = field(repr=False)

    @property
    def corpus_size(self) -> int:
        return len(self.summary_ids)

    @cached_property
    def entries(self) -> dict[NGram, frozenset[str]]:
        """Every repeating n-gram mapped to the ids of the summaries holding
        it, built on first read; equal id sets share one frozenset."""
        id_sets: dict[frozenset[str], frozenset[str]] = {}
        return {gram: id_sets.setdefault(ids, ids) for gram, ids in self._rows(slice(None))}

    def _rows(self, rows) -> Iterator[tuple[NGram, frozenset[str]]]:
        """The n-gram and id set of each selected row, in selection order."""
        counts = self.row_count[rows]
        ends = np.cumsum(counts)
        first = (np.cumsum(self.row_count) - self.row_count)[rows]
        # positions in pair_docs of every selected row's slice, end to end
        take = np.arange(int(counts.sum())) + np.repeat(first - (ends - counts), counts)
        ids = list(map(self.summary_ids.__getitem__, self.pair_docs[take].tolist()))
        spell = self.documents[0].vocab.tokens.__getitem__
        for n, d, off, end, size in zip(
            self.row_n[rows].tolist(), self.row_doc[rows].tolist(),
            self.row_offset[rows].tolist(), ends.tolist(), counts.tolist(),
        ):
            gram = tuple(map(spell, self.documents[d].ids[off : off + n]))
            yield gram, frozenset(ids[end - size : end])


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


# Windows, documents and classes are numbered in int32 arrays; numpy would
# wrap a larger count without an error.
_MAX_TOKENS = 2**31


def _concat(docs: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The documents' token ids end to end, the document of each token, and
    each document's start in that array."""
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    total = int(lengths.sum())
    if max(total, len(docs)) >= _MAX_TOKENS:
        raise ValueError(
            f"{total} tokens in {len(docs)} documents: both must stay below {_MAX_TOKENS}"
        )
    ids = np.frombuffer(b"".join(seq.ids for seq in docs), dtype=np.int32)
    doc = np.repeat(np.arange(len(docs), dtype=np.int32), lengths)
    return ids, doc, np.cumsum(lengths) - lengths


def _rank(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Each key's rank among the distinct keys, as int32, and their number."""
    order = np.argsort(key)
    ranks = np.cumsum(_run_starts(key[order]), dtype=np.int32)
    ranks -= 1
    cls = np.empty_like(ranks)
    cls[order] = ranks
    return cls, int(ranks[-1]) + 1 if ranks.size else 0


def _shared_levels(cls: np.ndarray, n_classes: int, doc: np.ndarray, n_docs: int) -> Iterator:
    """Yield each window length n, from 1 up, at which two or more documents
    hold a common window, as (n, pos, doc, cls, n_classes). pos, doc and cls
    hold, for every window of a shared class in position order, its start in
    the flat array, its document and its class; the level's classes are
    numbered below n_classes. A class is shared when its lowest and highest
    documents differ.

    cls holds the level-1 class of each token, below n_classes with perhaps
    gaps, equal exactly when two tokens are (the index passes the corpus's
    ids), and doc its document; both are int32.
    Classes are equal exactly when two windows spell the same tokens: the
    (n+1)-window at p gets the rank of the pair (class of the n-window at p,
    class of the n-window at p + 1), so classes run in the lexicographic
    order of their level-1 classes. Documents sharing a window share both
    its halves, so candidates at n+1 only start where two adjacent shared
    n-windows start in one document, which keeps long corpora cheap. The
    scan stops at the first n with no shared class; a caller that needs no
    longer windows stops asking. Each array is dropped as soon as it has
    been read, so a caller should drop what it holds of one level before
    asking for the next.
    """
    # Classes are int32, so the int64 key left * n_classes + right stays
    # below 2**62.
    pos = np.arange(cls.size, dtype=np.int32)
    n = 1
    while True:
        low = np.full(n_classes, n_docs, dtype=np.int32)
        high = np.zeros(n_classes, dtype=np.int32)
        np.minimum.at(low, cls, doc)
        np.maximum.at(high, cls, doc)
        keep = (low < high)[cls]
        del low, high
        pos, doc, cls = pos[keep], doc[keep], cls[keep]
        del keep
        if not cls.size:
            return
        yield n, pos, doc, cls, n_classes

        # next candidates: adjacent shared windows within one document
        adjacent = (pos[1:] == pos[:-1] + 1) & (doc[1:] == doc[:-1])
        left = cls[:-1][adjacent]
        right = cls[1:][adjacent]
        pos = pos[:-1][adjacent]
        doc = doc[:-1][adjacent]
        del cls, adjacent
        if not pos.size:
            return
        # the int64 key is formed only once level n's arrays are dropped
        key = left.astype(np.int64) * n_classes + right
        del left, right
        cls, n_classes = _rank(key)
        del key
        n += 1


def build_repetition_index(corpus: Corpus, min_n: int = 4) -> RepetitionIndex:
    """Index every n-gram (n >= min_n) present in two or more summaries.

    Windows are named by the exact classes of _shared_levels, one document
    per summary, so every window it keeps lies in two or more summaries.
    Lengths below min_n only prune candidates; the scan stops at the first
    length with no repeats, which is safe because a repeated (n+1)-gram
    implies both of its n-sub-grams repeat in the same summaries. From
    min_n on, each level's kept windows give its (class, summary) pairs,
    which become rows. The Eq.1 terms over all types are read off the rows
    once they are built; the part covered by a longer type is tallied level
    by level, since it reads the previous level's classes (see
    RepetitionIndex).
    """
    if min_n < 1:
        raise ValueError(f"min_n must be >= 1, got {min_n}")

    summary_ids = tuple(rec.id for rec in corpus.records)
    documents = tuple(rec.summary for rec in corpus.records)
    n_docs = len(documents)
    ids, doc, starts = _concat(documents)
    levels = _shared_levels(ids, len(corpus.vocab), doc, n_docs)
    del ids, doc

    # per level, the rows' n, window document and offset, count, and the
    # documents of their pairs; an empty level first, for an empty index
    parts = [(np.empty(0, dtype=np.int64),) * 5]
    # Eq.1 terms per summary over the types covered by a longer type
    m_covered = np.zeros(n_docs, dtype=np.int64)
    raw_covered = np.zeros(n_docs, dtype=np.int64)
    max_observed = 0
    for n, pos, doc, cls, n_classes in levels:
        if n >= min_n:
            max_observed = n
            # every distinct (class, summary) pair, ascending; with fewer
            # than 2**31 windows and summaries the key stays below 2**62
            pairs = _distinct(cls.astype(np.int64) * n_docs + doc)
            pair_doc = pairs % n_docs
            pair_cls = pairs // n_docs
            doc_counts = np.bincount(pair_cls, minlength=n_classes)
            if n > min_n:
                # an (n-1)-type of a summary lies inside a longer repeating
                # type of it exactly when it is a half of a repeating
                # n-window there; both halves are kept (n-1)-windows, so
                # they are neighbours among the previous level's windows
                half = np.searchsorted(prev_pos, pos)
                covered = _distinct(
                    np.concatenate((prev_cls[half], prev_cls[half + 1]), dtype=np.int64) * n_docs
                    + np.concatenate((doc, doc))
                )
                covered_doc = covered % n_docs
                np.add.at(m_covered, covered_doc, 1)
                np.add.at(raw_covered, covered_doc, prev_counts[covered // n_docs])

            # any window of a class spells its n-gram; take one per class
            window = np.empty(n_classes, dtype=np.int32)
            window[cls] = np.arange(cls.size, dtype=np.int32)
            repeats = doc_counts >= 2
            first = window[repeats]
            first_doc = doc[first]
            parts.append((np.full(first.size, n), first_doc, pos[first] - starts[first_doc],
                          doc_counts[repeats], pair_doc))
            prev_pos, prev_cls, prev_counts = pos, cls, doc_counts
        # so the next level is built while this loop holds only what the
        # next level's tallies read of this one
        del pos, doc, cls

    row_n, row_doc, row_offset, row_count, pair_docs = map(np.concatenate, zip(*parts))
    del parts
    # Eq.1 terms per summary over all its types, read off the rows: each
    # row it is in is one type, and adds that row's count to its sum
    m_all = np.bincount(pair_docs, minlength=n_docs)
    raw_all = np.zeros(n_docs, dtype=np.int64)
    np.add.at(raw_all, pair_docs, np.repeat(row_count, row_count))
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
        min_n=min_n,
        max_observed_n=max_observed,
        summary_ids=summary_ids,
        documents=documents,
        row_n=row_n,
        row_doc=row_doc,
        row_offset=row_offset,
        row_count=row_count,
        pair_docs=pair_docs,
        tallies=tallies,
    )


def paired_window_matches(records: Sequence[SummaryRecord], max_n: int) -> dict[int, int]:
    """For each n up to max_n at which any match exists, how many summary
    n-windows, over all the records, also occur in their own record's input.
    The records share one vocabulary. Record r's summary is document 2r and
    its input 2r + 1, and a token's class is the rank of its (id, r), so a
    class that two documents hold is exactly an n-gram found in both the
    summary and the input of one record. The scan is left after max_n, so no
    longer level is built."""
    n_records = len(records)
    ids, doc, _ = _concat([seq for rec in records for seq in (rec.summary, rec.input)])
    key = ids.astype(np.int64) * n_records + doc // 2
    del ids
    cls, n_classes = _rank(key)
    del key
    levels = _shared_levels(cls, n_classes, doc, 2 * n_records)
    del cls, doc
    matches = {}
    for n, pos, doc, cls, _ in levels:
        matches[n] = int(np.count_nonzero(doc % 2 == 0))
        del pos, doc, cls
        if n == max_n:
            break
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
    n-gram, then lexicographic token order. The rows are ranked on (count,
    n) in numpy; token tuples and id sets are made only for the first limit
    rows and those tied with the last of them on (count, n), which are then
    ordered by tokens. Token tuples are unique, so the order is total."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    rows = np.flatnonzero(index.row_count >= min_count)
    counts, lengths = index.row_count[rows], index.row_n[rows]
    ranked = np.lexsort((-lengths, -counts))
    if ranked.size > limit:
        last, rest = ranked[limit - 1], ranked[limit:]
        tied = (counts[rest] == counts[last]) & (lengths[rest] == lengths[last])
        # ranked runs by (-count, -n), so the rows tied with the last one follow it
        ranked = ranked[: limit + int(np.count_nonzero(tied))]
    top = sorted(index._rows(rows[ranked]), key=lambda row: (-len(row[1]), -len(row[0]), row[0]))
    return [RepeatRow(gram, len(ids), index.corpus_size, ids) for gram, ids in top[:limit]]


def index_export_lines(rows: Sequence[RepeatRow], *, with_ids: bool = False) -> Iterator[str]:
    """JSON-Lines export of the rows top_repeats returned, one object per
    n-gram; the containing summary ids only on request."""
    for row in rows:
        obj: dict = {"ngram": list(row.ngram), "n": len(row.ngram), "count": row.count}
        if with_ids:
            obj["ids"] = sorted(row.ids)
        yield json.dumps(obj, ensure_ascii=False)
