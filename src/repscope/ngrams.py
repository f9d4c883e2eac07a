"""Cross-summary repeating n-gram index.

An n-gram (n >= min_n, default 4) is *repeating* when it occurs in two or
more distinct summaries of a corpus. The index maps each repeating n-gram
to the full set of summary ids containing it, for every length at which
repeats exist. Membership counts summaries, not occurrences: five copies
inside one summary contribute a single id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    length with any repeat (0 when the index is empty). summary_ids
    records which summaries were indexed so score lookups can reject
    records from other corpora.
    """

    entries: dict[NGram, frozenset[str]]
    min_n: int
    max_observed_n: int
    corpus_size: int
    summary_ids: frozenset[str]

    def __len__(self) -> int:
        return len(self.entries)


def build_repetition_index(corpus: Corpus, min_n: int = 4) -> RepetitionIndex:
    """Index every n-gram (n >= min_n) present in two or more summaries.

    Lengths are scanned upward from min_n; the scan stops at the first
    length with no repeats, which is safe because a repeated (n+1)-gram
    implies both of its n-sub-grams repeat in the same summaries. For the
    same reason, candidate windows at length n+1 only start where two
    adjacent repeating n-grams start, which keeps long corpora cheap.
    """
    if min_n < 1:
        raise ValueError(f"min_n must be >= 1, got {min_n}")
    if not corpus.records:
        raise EmptyCorpusError(f"corpus {corpus.name!r} has no records to index")

    # (summary id, tokens, candidate start positions); None means every position
    active: list[tuple[str, tuple[str, ...], list[int] | None]] = [
        (rec.id, rec.summary.tokens, None) for rec in corpus.records
    ]
    entries: dict[NGram, frozenset[str]] = {}
    max_observed = 0
    n = min_n
    while active:
        seen: dict[NGram, object] = {}  # ngram -> first id, promoted to set on repeat
        per_summary: list[tuple[tuple[str, ...], list[tuple[int, NGram]], str]] = []
        for rid, tokens, candidates in active:
            limit = len(tokens) - n + 1
            positions: Iterable[int] = range(limit) if candidates is None else candidates
            windows: list[tuple[int, NGram]] = []
            for p in positions:
                gram = tokens[p : p + n]
                windows.append((p, gram))
                prev = seen.get(gram)
                if prev is None:
                    seen[gram] = rid
                elif prev.__class__ is set:
                    prev.add(rid)
                elif prev != rid:
                    seen[gram] = {prev, rid}
            per_summary.append((tokens, windows, rid))
        retained = {gram: ids for gram, ids in seen.items() if ids.__class__ is set}
        if not retained:
            break
        for gram, ids in retained.items():
            entries[gram] = frozenset(ids)
        max_observed = n
        next_active: list[tuple[str, tuple[str, ...], list[int] | None]] = []
        for tokens, windows, rid in per_summary:
            good = {p for p, gram in windows if gram in retained}
            candidates = sorted(p for p in good if p + 1 in good)
            if candidates:
                next_active.append((rid, tokens, candidates))
        active = next_active
        n += 1

    return RepetitionIndex(
        entries=entries,
        min_n=min_n,
        max_observed_n=max_observed,
        corpus_size=len(corpus.records),
        summary_ids=corpus.ids(),
    )


def repeat_count(index: RepetitionIndex, gram: Sequence[str]) -> int:
    """Number of summaries containing ``gram``; 0 when it repeats in fewer
    than two summaries or is shorter than the indexed minimum length."""
    ids = index.entries.get(tuple(gram))
    return len(ids) if ids is not None else 0


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
    index: RepetitionIndex,
    *,
    limit: int | None = None,
    min_count: int = 2,
    with_ids: bool = False,
) -> Iterator[str]:
    """JSON-Lines export of the index, one object per repeating n-gram, in
    top_repeats order. Containing summary ids are included only on request."""
    if not index.entries:
        return
    effective_limit = len(index.entries) if limit is None else limit
    for row in top_repeats(index, effective_limit, min_count):
        obj: dict = {"ngram": list(row.ngram), "n": len(row.ngram), "count": row.count}
        if with_ids:
            obj["ids"] = sorted(index.entries[row.ngram])
        yield json.dumps(obj, ensure_ascii=False)
