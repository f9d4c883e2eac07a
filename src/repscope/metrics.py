"""Repetition scores, abstractiveness percentages, and length statistics.

The per-summary score is ln(1 + sum of containing-summary counts over the
summary's repeating n-grams); the dataset score is the fraction of
summaries holding at least one repeating n-gram. Both are pure functions
of a corpus and its repetition index.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .corpus import Corpus, SummaryRecord
from .errors import MissingPairedInputError
from .ngrams import RepetitionIndex, paired_window_matches

SCORE_MODES = ("all_ngrams", "maximal_only")

# summary plus input tokens per paired scan, whose traced peak was 29 bytes
# per token on a full block (30 MB); records are independent, so the counts
# do not depend on the size
_BLOCK_TOKENS = 1 << 20


@dataclass(frozen=True)
class SummaryRepetitionScore:
    """Repetition of one summary: m distinct repeating n-grams whose
    containing-summary counts sum to raw_sum; score = ln(raw_sum + 1)."""

    summary_id: str
    m: int
    raw_sum: int
    score: float


@dataclass(frozen=True)
class DatasetRepetitionScore:
    dataset: str
    repeating_summaries: int
    total_summaries: int
    score: float


@dataclass(frozen=True)
class AbstractivenessRow:
    """Percent of summary n-gram instances absent from the paired input."""

    dataset: str
    n: int
    percent_novel: float


class LengthStats(NamedTuple):
    mean: float
    median: float
    minimum: int
    maximum: int


def summary_repetition_score(
    record: SummaryRecord, index: RepetitionIndex, *, mode: str = "all_ngrams"
) -> SummaryRepetitionScore:
    """Score one summary against the index it was built into.

    The summary is scored as it was indexed: the terms are the ones the
    index tallied for ``record.id`` while it was built, so the record's
    tokens are not read again.

    mode "all_ngrams" counts every distinct repeating n-gram type including
    nested ones (a repeated 5-gram also contributes its two 4-grams);
    "maximal_only" keeps only types not contained in a longer repeating
    type of the same summary.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    if record.id not in index.tallies:
        raise ValueError(f"summary {record.id!r} was not part of the indexed corpus")
    m_all, raw_all, m_maximal, raw_maximal = index.tallies[record.id]
    m, raw_sum = (m_all, raw_all) if mode == "all_ngrams" else (m_maximal, raw_maximal)
    return SummaryRepetitionScore(
        summary_id=record.id, m=m, raw_sum=raw_sum, score=math.log1p(raw_sum)
    )


def dataset_repetition_score(corpus: Corpus, index: RepetitionIndex) -> DatasetRepetitionScore:
    """Fraction of summaries containing at least one repeating n-gram, read
    from the Eq.1 tallies: a summary repeats exactly when its m is above 0."""
    if index.tallies.keys() != {rec.id for rec in corpus.records}:
        raise ValueError("index was not built over this corpus")
    repeating = sum(1 for m, _, _, _ in index.tallies.values() if m)
    total = len(corpus.records)
    return DatasetRepetitionScore(
        dataset=corpus.name,
        repeating_summaries=repeating,
        total_summaries=total,
        score=repeating / total,
    )


def abstractiveness_rows(corpus: Corpus, ns: Sequence[int]) -> list[AbstractivenessRow]:
    """Percent of summary n-gram instances that never occur in the paired
    input document, one row for each n in ns, in that order.

    Instances are counted with multiplicity and aggregated over the corpus;
    summaries shorter than n contribute nothing.
    """
    if not ns or min(ns) < 1:
        raise ValueError(f"every n must be >= 1, got {list(ns)}")
    missing = [rec.id for rec in corpus.records if rec.input is None]
    if missing:
        raise MissingPairedInputError(missing)

    matched: Counter[int] = Counter()
    for block in _blocks(corpus.records):
        matched.update(paired_window_matches(block, max(ns)))
    lengths = [rec.length_tokens for rec in corpus.records]
    rows = []
    for n in ns:
        total = sum(max(0, length - n + 1) for length in lengths)
        percent = 100.0 * (total - matched[n]) / total if total else 0.0
        rows.append(AbstractivenessRow(dataset=corpus.name, n=n, percent_novel=percent))
    return rows


def _blocks(records: Sequence[SummaryRecord]) -> Iterator[list[SummaryRecord]]:
    """Consecutive runs of records with at most _BLOCK_TOKENS summary plus
    input tokens each, or a single longer record."""
    block, size = [], 0
    for rec in records:
        tokens = len(rec.summary) + len(rec.input)
        if block and size + tokens > _BLOCK_TOKENS:
            yield block
            block, size = [], 0
        block.append(rec)
        size += tokens
    yield block


def length_statistics(corpus: Corpus) -> LengthStats:
    """Mean, median, min, max of summary token counts."""
    lengths = [rec.length_tokens for rec in corpus.records]
    return LengthStats(
        mean=statistics.fmean(lengths),
        median=float(statistics.median(lengths)),
        minimum=min(lengths),
        maximum=max(lengths),
    )
