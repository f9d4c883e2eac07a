"""Reference checks on a ``report-all`` tree, independent of the seed.

Recomputes from the JSON-Lines inputs, with code that shares nothing with
repscope, the report values the benchmark can afford to check on every seed:
repeating-summary counts at n >= 4, summary length statistics,
abstractiveness for n = 1..4 and the design's columns. Pinned digests cover
the rest of the tree for the seeds that have one.
"""

from __future__ import annotations

import csv
import json
import math
import unicodedata
from pathlib import Path

MIN_N = 4
DESIGN_COLUMNS = [
    "Intercept", "Summary length (z)", "BART", "PEGASUS", "Train XSum", "Test XSum",
]
INTERACTION = "XSum - XSum"


class _Tokenizer:
    """Lowercase, split on whitespace, peel Unicode P* characters off both
    ends of each unit into tokens of their own (the documented default)."""

    def __init__(self):
        self.punct: dict[str, bool] = {}

    def _is_p(self, ch: str) -> bool:
        known = self.punct.get(ch)
        if known is None:
            known = self.punct[ch] = unicodedata.category(ch)[0] == "P"
        return known

    def __call__(self, text: str) -> list[str]:
        out: list[str] = []
        for unit in text.lower().split():
            if not (self._is_p(unit[0]) or self._is_p(unit[-1])):
                out.append(unit)
                continue
            lo, hi = 0, len(unit)
            while lo < hi and self._is_p(unit[lo]):
                lo += 1
            while hi > lo and self._is_p(unit[hi - 1]):
                hi -= 1
            out.extend(unit[:lo])
            if lo < hi:
                out.append(unit[lo:hi])
            out.extend(unit[hi:])
        return out


def _grams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _expected(path: Path, tokenize: _Tokenizer) -> dict:
    summaries, inputs = [], []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            summaries.append(tokenize(obj["summary"]))
            inputs.append(tokenize(obj["input"]) if "input" in obj else None)
    # a summary repeats when one of its 4-grams occurs in another summary;
    # every longer repeat contains a repeated 4-gram
    first_doc: dict[tuple, int] = {}
    shared: set[tuple] = set()
    for doc, tokens in enumerate(summaries):
        for gram in set(_grams(tokens, MIN_N)):
            if first_doc.setdefault(gram, doc) != doc:
                shared.add(gram)
    repeating = sum(1 for tokens in summaries if not shared.isdisjoint(_grams(tokens, MIN_N)))
    lengths = sorted(len(t) for t in summaries)
    expected = {
        "total": len(summaries),
        "repeating": repeating,
        "mean": sum(lengths) / len(lengths),
        "min": lengths[0],
        "max": lengths[-1],
    }
    if all(i is not None for i in inputs):
        novel_pct = {}
        for n in (1, 2, 3, 4):
            novel = total = 0
            for tokens, source in zip(summaries, inputs):
                windows = _grams(tokens, n)
                source_grams = set(_grams(source, n))
                novel += sum(1 for g in windows if g not in source_grams)
                total += len(windows)
            novel_pct[n] = 100.0 * novel / total if total else 0.0
        expected["novel_pct"] = novel_pct
    return expected


def check_tree(corpus_paths: list[Path], out_dir: Path) -> list[str]:
    """Problems found in ``out_dir`` against the reference; empty when none."""
    tokenize = _Tokenizer()
    problems: list[str] = []
    scores = {row["dataset"]: row for row in json.loads((out_dir / "dataset_scores.json").read_text())}
    with (out_dir / "summary_lengths.csv").open(encoding="utf-8", newline="") as fh:
        lengths = {row["dataset"]: row for row in csv.DictReader(fh)}
    for path in corpus_paths:
        name = path.stem
        want = _expected(path, tokenize)
        got = scores.get(name)
        if got is None or (got["total_summaries"], got["repeating_summaries"]) != (
            want["total"], want["repeating"]
        ):
            problems.append(f"{name}: dataset score {got} != {want['repeating']}/{want['total']}")
        row = lengths.get(name)
        if row is None or (int(row["min_length"]), int(row["max_length"])) != (
            want["min"], want["max"]
        ) or not math.isclose(float(row["mean_length"]), want["mean"], rel_tol=1e-12):
            problems.append(f"{name}: summary lengths {row} != {want}")
        if "novel_pct" in want:
            rows = json.loads((out_dir / f"abstractiveness_{name}.json").read_text())
            got_pct = {r["n"]: r["percent_novel"] for r in rows}
            for n, pct in want["novel_pct"].items():
                if n not in got_pct or not math.isclose(got_pct[n], pct, abs_tol=1e-9):
                    problems.append(f"{name}: abstractiveness n={n} {got_pct.get(n)} != {pct}")
    design = json.loads((out_dir / "design_columns.json").read_text())
    if design != {"columns": DESIGN_COLUMNS + [INTERACTION], "nested_columns": DESIGN_COLUMNS}:
        problems.append(f"design columns {design}")
    if json.loads((out_dir / "lr_test.json").read_text()).get("df") != 1:
        problems.append("lr_test.json: df != 1")
    return problems
