"""Corpus ingestion: JSON-Lines loading and whitespace tokenization.

A corpus is an ordered collection of summary records, each tokenized once
under a single tokenizer configuration. All downstream analyses (n-gram
indexing, repetition scores, regression) operate on these records.
"""

from __future__ import annotations

import json
import re
import sys
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusLoadError, EmptyCorpusError, InputError

REQUIRED_FIELDS = ("id", "summary", "architecture", "test_dataset")
OPTIONAL_FIELDS = ("input", "train_dataset")


@dataclass(frozen=True)
class TokenizerConfig:
    """Normalization applied before token streams are compared.

    punctuation_mode "split" peels leading and trailing punctuation off each
    whitespace unit into standalone tokens, so phrase matches survive clause
    boundaries; "attached" keeps units exactly as split on whitespace.
    """

    case_fold: bool = True
    punctuation_mode: str = "split"

    def __post_init__(self):
        if not isinstance(self.case_fold, bool):
            raise ValueError(f"case_fold must be true or false, got {self.case_fold!r}")
        if self.punctuation_mode not in ("split", "attached"):
            raise ValueError(
                f"punctuation_mode must be 'split' or 'attached', got {self.punctuation_mode!r}"
            )


@dataclass(frozen=True)
class TokenSequence:
    """A normalized token stream plus the raw text it came from."""

    tokens: tuple[str, ...]
    text: str

    def __len__(self) -> int:
        return len(self.tokens)


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _split_unit(unit: str) -> list[str]:
    start, end = 0, len(unit)
    while start < end and _is_punctuation(unit[start]):
        start += 1
    while end > start and _is_punctuation(unit[end - 1]):
        end -= 1
    parts = list(unit[:start])
    if start < end:
        parts.append(unit[start:end])
    parts.extend(unit[end:])
    return parts


def _tokenize(
    raw_text: str, config: TokenizerConfig, memo: dict[str, tuple[str, ...]]
) -> TokenSequence:
    """``tokenize`` with a caller-owned memo from each (case-folded)
    whitespace unit to its tokens, so a unit that recurs across the texts
    sharing the memo is split and interned only once."""
    text = raw_text.lower() if config.case_fold else raw_text
    split = config.punctuation_mode == "split"
    tokens: list[str] = []
    for unit in text.split():
        parts = memo.get(unit)
        if parts is None:
            # interning dedups token storage across a large corpus
            parts = tuple(map(sys.intern, _split_unit(unit) if split else (unit,)))
            memo[unit] = parts
        tokens += parts
    return TokenSequence(tokens=tuple(tokens), text=raw_text)


def tokenize(raw_text: str, config: TokenizerConfig | None = None) -> TokenSequence:
    """Tokenize text deterministically under ``config``.

    Whitespace-delimited units, optionally case folded, optionally with
    leading/trailing punctuation split into separate tokens. Total function:
    empty text yields an empty sequence.
    """
    return _tokenize(raw_text, config if config is not None else TokenizerConfig(), {})


@dataclass(frozen=True)
class SummaryRecord:
    """One summary with its generation metadata.

    ``train_dataset`` is absent for human-written references; ``input`` is
    the paired source document, needed only for abstractiveness.
    """

    id: str
    summary: TokenSequence
    architecture: str
    test_dataset: str
    train_dataset: str | None = None
    input: TokenSequence | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id must be a non-empty string")
        if self.architecture == "Human" and self.train_dataset is not None:
            raise ValueError(
                f"record {self.id!r}: architecture 'Human' cannot carry a train_dataset"
            )

    @property
    def length_tokens(self) -> int:
        return len(self.summary.tokens)


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable, non-empty collection of records sharing one
    tokenizer."""

    records: tuple[SummaryRecord, ...]
    name: str = ""

    def __post_init__(self):
        # load_corpus checks both conditions first, to name the file and the
        # line; this guards a Corpus built in code
        if not self.records:
            raise EmptyCorpusError(f"corpus {self.name!r} has no records")
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise InputError(f"duplicate summary id {rec.id!r} in corpus {self.name!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)


def _record_from_object(
    obj: dict, config: TokenizerConfig, memo: dict[str, tuple[str, ...]]
) -> SummaryRecord:
    for field_name in REQUIRED_FIELDS:
        if field_name not in obj:
            raise ValueError(f"missing required field {field_name!r}")
        if not isinstance(obj[field_name], str):
            raise ValueError(f"field {field_name!r} must be a string")
    for field_name in OPTIONAL_FIELDS:
        value = obj.get(field_name)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"field {field_name!r} must be a string or omitted")
    return SummaryRecord(
        id=obj["id"],
        summary=_tokenize(obj["summary"], config, memo),
        architecture=obj["architecture"],
        test_dataset=obj["test_dataset"],
        train_dataset=obj.get("train_dataset"),
        input=_tokenize(obj["input"], config, memo) if obj.get("input") is not None else None,
    )


def load_corpus(path: str | Path, config: TokenizerConfig | None = None) -> Corpus:
    """Load a JSON-Lines corpus file, one summary record per line.

    Each line is an object with required fields "id", "summary",
    "architecture", "test_dataset" and optional "input", "train_dataset".
    Blank lines are skipped. Errors report the file and line number.
    """
    if config is None:
        config = TokenizerConfig()
    path = Path(path)
    records: list[SummaryRecord] = []
    seen_ids: dict[str, int] = {}
    memo: dict[str, tuple[str, ...]] = {}  # unit -> tokens, shared by every text in the file
    try:
        fh = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise CorpusLoadError(f"{path}: cannot open: {exc.strerror or exc}") from exc
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also huge ints, deep nests
                    raise CorpusLoadError(
                        f"{path}:{lineno}: invalid JSON: {getattr(exc, 'msg', exc)}"
                    ) from exc
                if not isinstance(obj, dict):
                    raise CorpusLoadError(f"{path}:{lineno}: expected a JSON object")
                try:
                    record = _record_from_object(obj, config, memo)
                except ValueError as exc:
                    raise CorpusLoadError(f"{path}:{lineno}: {exc}") from exc
                if record.id in seen_ids:
                    raise CorpusLoadError(
                        f"{path}:{lineno}: duplicate id {record.id!r} "
                        f"(first seen on line {seen_ids[record.id]})"
                    )
                seen_ids[record.id] = lineno
                records.append(record)
        except UnicodeDecodeError as exc:
            # the reader decodes 8 KB chunks, so the lines read so far do not
            # place the bad byte: read again with undecodable bytes escaped
            with path.open("r", encoding="utf-8", errors="surrogateescape") as again:
                bad = next((n for n, text in enumerate(again, start=1)
                            if re.search("[\udc80-\udcff]", text)), "?")
            raise CorpusLoadError(f"{path}:{bad}: not valid UTF-8") from exc
    if not records:
        raise EmptyCorpusError(f"{path}: no records")
    return Corpus(records=tuple(records), name=path.stem)

