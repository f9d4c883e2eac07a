"""Corpus ingestion: JSON-Lines loading and whitespace tokenization.

A corpus is an ordered collection of summary records, each tokenized once
under a single tokenizer configuration. Its summaries and inputs share one
vocabulary, which numbers each token as an int32 id in first-seen order as
the file is read; the index, the scores and abstractiveness read those ids
as they are. A sequence spells its tokens only through ``tokens``, and the
index spells the windows it reports from the vocabulary itself. A record
keeps one raw string, its summary as written, for the reports that quote
it; a paired input keeps only its ids.
"""

from __future__ import annotations

import hashlib
import json
import re
import unicodedata
from array import array
from dataclasses import dataclass, field
from functools import cache
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


class Vocabulary(dict):
    """Each token of one corpus -> its id, numbered from 0 in first-seen order
    as tokens are looked up; ``tokens[i]`` spells id i. ``units`` caches, per
    punctuation mode (attached, split), the ids of each whitespace unit met."""

    def __init__(self) -> None:
        self.tokens: list[str] = []
        self.units: tuple[dict[str, tuple[int, ...]], ...] = ({}, {})

    def __missing__(self, token: str) -> int:
        self[token] = len(self.tokens)
        self.tokens.append(token)
        return self[token]


@dataclass(frozen=True, slots=True)
class TokenSequence:
    """A normalized token stream as int32 ids (an array of C ints) in
    ``vocab``; the text it came from is not kept. ``tokens`` spells the
    stream, and is its one decoder."""

    ids: array
    vocab: Vocabulary

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(map(self.vocab.tokens.__getitem__, self.ids))


@cache  # one entry per character met
def _punctuation(ch: str) -> bool:
    return unicodedata.category(ch)[0] == "P"


def _split_unit(unit: str) -> list[str]:
    if not (_punctuation(unit[0]) or _punctuation(unit[-1])):
        return [unit]
    start, end = 0, len(unit)
    while start < end and _punctuation(unit[start]):
        start += 1
    while end > start and _punctuation(unit[end - 1]):
        end -= 1
    parts = list(unit[:start])
    if start < end:
        parts.append(unit[start:end])
    parts.extend(unit[end:])
    return parts


def tokenize(
    raw_text: str, config: TokenizerConfig | None = None, *, vocab: Vocabulary | None = None
) -> TokenSequence:
    """The tokens of ``raw_text`` under ``config``, as ids in ``vocab``; the
    text itself is not kept.

    Whitespace-delimited units, optionally case folded, optionally with
    leading/trailing punctuation split into separate tokens. Total function:
    empty text yields an empty sequence. Texts analysed together share one
    ``vocab`` (a new one when none is given), whose unit memo never changes
    the tokens.
    """
    if config is None:
        config = TokenizerConfig()
    if vocab is None:
        vocab = Vocabulary()
    text = raw_text.lower() if config.case_fold else raw_text
    split = config.punctuation_mode == "split"
    memo = vocab.units[split]
    ids: list[int] = []
    for unit in text.split():
        parts = memo.get(unit)
        if parts is None:
            parts = memo[unit] = tuple(map(vocab.__getitem__, _split_unit(unit) if split else [unit]))
        ids += parts
    return TokenSequence(array("i", ids), vocab)


@dataclass(frozen=True)
class SummaryRecord:
    """One summary with its generation metadata.

    ``text`` is the summary as written, the one raw string a report quotes;
    ``summary`` holds its token ids. ``train_dataset`` is absent for
    human-written references; ``input`` holds the ids of the paired
    source document, read only by abstractiveness.
    """

    id: str
    text: str
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
        return len(self.summary)


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable, non-empty collection of records sharing one
    tokenizer and one vocabulary. ``sha256`` is the hex digest of the file
    ``load_corpus`` read it from, every byte of it; None for a corpus built
    in code. Two corpora of the same records are equal whatever their digests."""

    records: tuple[SummaryRecord, ...]
    name: str = ""
    sha256: str | None = field(default=None, compare=False)

    def __post_init__(self):
        # load_corpus checks both conditions first, to name the file and the
        # line; this guards a Corpus built in code
        if not self.records:
            raise EmptyCorpusError(f"corpus {self.name!r} has no records")
        seen: set[str] = set()
        vocab = self.vocab  # ids from two vocabularies would collide without an error
        for rec in self.records:
            if rec.id in seen:
                raise InputError(f"duplicate summary id {rec.id!r} in corpus {self.name!r}")
            seen.add(rec.id)
            if rec.summary.vocab is not vocab or getattr(rec.input, "vocab", vocab) is not vocab:
                raise InputError(f"record {rec.id!r} holds ids of another vocabulary")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def vocab(self) -> Vocabulary:
        return self.records[0].summary.vocab


def _record_from_line(line: str, config: TokenizerConfig, vocab: Vocabulary) -> SummaryRecord:
    """The record on one corpus line; ``ValueError`` names any fault in it."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also huge ints, deep nests
        raise ValueError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for field_name in REQUIRED_FIELDS:
        if field_name not in obj:
            raise ValueError(f"missing required field {field_name!r}")
        if not isinstance(obj[field_name], str):
            raise ValueError(f"field {field_name!r} must be a string")
    for field_name in OPTIONAL_FIELDS:
        value = obj.get(field_name)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"field {field_name!r} must be a string or omitted")
    if "\\u" in line:  # strict UTF-8 decoding yields no surrogate: only an escape can
        for field_name in REQUIRED_FIELDS + OPTIONAL_FIELDS:
            if lone := re.search("[\ud800-\udfff]", obj.get(field_name) or ""):
                raise ValueError(f"field {field_name!r} holds a lone surrogate {lone.group()!r}")
    return SummaryRecord(
        id=obj["id"],
        text=obj["summary"],
        summary=tokenize(obj["summary"], config, vocab=vocab),
        architecture=obj["architecture"],
        test_dataset=obj["test_dataset"],
        train_dataset=obj.get("train_dataset"),
        input=tokenize(obj["input"], config, vocab=vocab) if obj.get("input") is not None else None,
    )


def load_corpus(path: str | Path, config: TokenizerConfig | None = None) -> Corpus:
    """Load a JSON-Lines corpus file, one summary record per line.

    Each line is an object with required fields "id", "summary",
    "architecture", "test_dataset" and optional "input", "train_dataset".
    A line ends at ``\\n`` only, as JSON Lines defines it, so a ``\\r``
    before it or between the parts of a record is JSON whitespace. Each
    line is decoded as UTF-8 once, in the one read of the file, so a byte
    that is not UTF-8 is named by its line. A line of JSON whitespace alone
    (space, ``\\t``, ``\\r``) is blank and skipped; any other character, such
    as a no-break space, makes the line invalid JSON.
    That read also hashes every byte, blank lines and line ends included,
    into ``Corpus.sha256``, so the digest is of the bytes loaded, and a
    pipe can be a corpus.
    Errors report the file and line number. A record keeps its summary's
    text and ids, and only the ids of its input, all in one vocabulary.
    """
    if config is None:
        config = TokenizerConfig()
    path = Path(path)
    records: list[SummaryRecord] = []
    seen_ids: dict[str, int] = {}
    vocab = Vocabulary()
    digest = hashlib.sha256()
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise CorpusLoadError(f"{path}: cannot open: {exc.strerror or exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            digest.update(raw)
            try:
                line = raw.decode("utf-8")
                if not line.strip(" \t\r\n"):
                    continue
                record = _record_from_line(line, config, vocab)
                if record.id in seen_ids:
                    first = seen_ids[record.id]
                    raise ValueError(f"duplicate id {record.id!r} (first seen on line {first})")
            except UnicodeDecodeError as exc:
                raise CorpusLoadError(f"{path}:{lineno}: not valid UTF-8") from exc
            except ValueError as exc:
                raise CorpusLoadError(f"{path}:{lineno}: {exc}") from exc
            seen_ids[record.id] = lineno
            records.append(record)
    if not records:
        raise EmptyCorpusError(f"{path}: no records")
    for memo in vocab.units:  # a cache for the load only: the corpus keeps ids and tokens
        memo.clear()
    return Corpus(records=tuple(records), name=path.stem, sha256=digest.hexdigest())
