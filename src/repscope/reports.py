"""Deterministic rendering of analysis results to CSV, Markdown, and JSON.

Numbers in CSV and JSON keep full precision (shortest round-trip repr);
Markdown tables round for reading. No timestamps or environment state go
into any report, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict
from typing import Iterable, Mapping, Sequence

from .metrics import (
    AbstractivenessRow,
    DatasetRepetitionScore,
    LengthStats,
    SummaryRepetitionScore,
)
from .ngrams import RepeatRow
from .regression import LrTestResult, RegressionFit

_NGRAM_SIZE_NAMES = {1: "Unigram", 2: "Bigram", 3: "Trigram"}


def format_freq(count: int, total: int) -> str:
    return f"{count}/{total}"


def ngram_size_label(n: int) -> str:
    return _NGRAM_SIZE_NAMES.get(n, f"{n}-gram")


def number(x: float) -> str:
    return repr(float(x))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def markdown_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        # an escaped "|" and spaces for line breaks keep each body row one line
        cells = (" ".join(str(cell).replace("|", "\\|").splitlines()) for cell in row)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# dataset repetition scores


def dataset_scores_csv(scores: Sequence[DatasetRepetitionScore]) -> str:
    return csv_text(
        ("dataset", "repeating_summaries", "total_summaries", "score"),
        [(s.dataset, s.repeating_summaries, s.total_summaries, number(s.score)) for s in scores],
    )


def dataset_scores_markdown(scores: Sequence[DatasetRepetitionScore]) -> str:
    return markdown_table(
        ("Dataset", "Repeating", "Total", "Score"),
        [
            (s.dataset, s.repeating_summaries, s.total_summaries, f"{s.score:.2f}")
            for s in scores
        ],
    )


def dataset_scores_json(scores: Sequence[DatasetRepetitionScore]) -> str:
    return canonical_json([asdict(s) for s in scores])


# per-summary scores


def summary_scores_csv(scores: Sequence[SummaryRepetitionScore]) -> str:
    return csv_text(
        ("id", "m", "raw_sum", "score"),
        [(s.summary_id, s.m, s.raw_sum, number(s.score)) for s in scores],
    )


# repeating n-gram reports


def repeats_csv(rows: Sequence[RepeatRow], texts: Mapping[str, str]) -> str:
    """Rows with their example summary, whose raw text ``texts`` maps by id."""
    return csv_text(
        ("ngram", "n", "count", "total", "freq", "example_id", "example"),
        [
            (" ".join(row.ngram), len(row.ngram), row.count, row.corpus_size,
             format_freq(row.count, row.corpus_size), row.example_id, texts[row.example_id])
            for row in rows
        ],
    )


def repeats_markdown(rows: Sequence[RepeatRow], texts: Mapping[str, str]) -> str:
    return markdown_table(
        ("Repeating n-gram", "Freq", "Example"),
        [
            (" ".join(row.ngram), format_freq(row.count, row.corpus_size), texts[row.example_id])
            for row in rows
        ],
    )


# abstractiveness


def abstractiveness_csv(rows: Sequence[AbstractivenessRow]) -> str:
    return csv_text(
        ("dataset", "n", "percent_novel"),
        [(r.dataset, r.n, number(r.percent_novel)) for r in rows],
    )


def abstractiveness_markdown(rows: Sequence[AbstractivenessRow]) -> str:
    """One corpus's rows as one table row, a column per n in the rows' order."""
    return markdown_table(
        ["Dataset"] + [ngram_size_label(r.n) for r in rows],
        [[rows[0].dataset] + [f"{r.percent_novel:.2f}" for r in rows]],
    )


def abstractiveness_json(rows: Sequence[AbstractivenessRow]) -> str:
    return canonical_json([asdict(r) for r in rows])


# summary lengths


def lengths_csv(rows: Sequence[tuple[str, LengthStats]]) -> str:
    return csv_text(
        ("dataset", "mean_length", "median_length", "min_length", "max_length"),
        [
            (name, number(s.mean), number(s.median), s.minimum, s.maximum)
            for name, s in rows
        ],
    )


def lengths_markdown(rows: Sequence[tuple[str, LengthStats]]) -> str:
    return markdown_table(
        ("Dataset", "Mean", "Median", "Min", "Max"),
        [(name, f"{s.mean:.2f}", f"{s.median:.1f}", s.minimum, s.maximum) for name, s in rows],
    )


# regression


def fit_csv(fit: RegressionFit) -> str:
    return csv_text(
        ("predictor", "coef", "p_value", "ci_low", "ci_high"),
        [
            (
                name,
                number(fit.coefficients[j]),
                number(fit.p_values[j]),
                number(fit.ci_lower[j]),
                number(fit.ci_upper[j]),
            )
            for j, name in enumerate(fit.column_names)
        ],
    )


def fit_markdown(fit: RegressionFit) -> str:
    lo = (1.0 - fit.confidence_level) / 2.0
    hi = 1.0 - lo
    header = ("", "Coef", "P>|t|", f"[{lo:.3f}", f"{hi:.3f}]")
    body = [
        (
            name,
            f"{fit.coefficients[j]:.4f}",
            f"{fit.p_values[j]:.3f}",
            f"{fit.ci_lower[j]:.3f}",
            f"{fit.ci_upper[j]:.3f}",
        )
        for j, name in enumerate(fit.column_names)
    ]
    return markdown_table(header, body)


def lr_test_json(result: LrTestResult) -> str:
    return canonical_json(
        {
            "statistic": result.statistic,
            "df": result.df,
            "p_value": result.p_value,
            "reject": result.reject,
        }
    )
