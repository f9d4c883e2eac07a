"""Seeded generator of the benchmark workloads.

Each workload is four JSON-Lines corpora (``humans``, ``bart_cnn``,
``bart_xsum``, ``pegasus_cnn``) whose test sets mix CNN/DailyMail and XSum,
so ``report-all`` fits the full design with one train x test interaction
column and writes ``lr_test.json``. The same seed and scale always give
byte-identical files; the program under test receives nothing but them.

Usage: python bench/workloads.py WORKLOAD --seed N [--scale X] --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

CORPORA = (
    # (file stem, architecture, train dataset)
    ("humans", "Human", None),
    ("bart_cnn", "BART", "CNN/DailyMail"),
    ("bart_xsum", "BART", "XSum"),
    ("pegasus_cnn", "PEGASUS", "CNN/DailyMail"),
)
TEST_DATASETS = ("CNN/DailyMail", "XSum")

# Why each workload exists: the layer it stresses, and what it leaves idle.
WHY = {
    "stock-phrases": "no inputs; 80% of summaries carry one of 125 stock phrases of 5-10 "
    "words: many shallow repeats, so ingest and index building dominate",
    "long-repeats": "half the summaries carry one of 12 boilerplate spans of 18-50 words, "
    "0-2 words substituted, maximal_only: many narrow index levels and Eq.1 dominate",
    "paired-inputs": "400-word paired inputs, half of each summary copied from its input: "
    "ingest and abstractiveness dominate and the index is nearly idle",
}

# Characters that decide a tokenizer's correctness: Unicode P* punctuation is
# peeled off unit edges, symbols such as "€" and "+" are not.
TRAILING = (",", ".", ".", ",", ";", ":", "!", "?", "”", "»", "—", "…", "’")
LEADING = ("«", "“", "(", "¿", "—")
SYMBOLIC = ("€5", "+3", "x²", "§12", "$40", "°c", "½")

_SYLLABLES = (
    "ka lo mi ra te su no vi da pe ri go ne ba tu sa lé mø ñu zé "
    "çi ße äu ös ül år ju fe ho ki ma ol un ar en is et on al "
    "dro pla stri kve gno chu tho wy xa qo bré grü"
).split()


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3))))
    ranked = sorted(words)
    rng.shuffle(ranked)
    return ranked


class _Text:
    """Zipf-distributed words rendered with mixed case and punctuation."""

    def __init__(self, rng: random.Random, vocab_size: int = 8000):
        self.rng = rng
        self.vocab = _vocabulary(rng, vocab_size)
        weights = [1.0 / (rank + 8) for rank in range(vocab_size)]
        total = 0.0
        self.cum = []
        for w in weights:
            total += w
            self.cum.append(total)

    def words(self, k: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum, k=k)

    def render(self, words: list[str]) -> list[str]:
        """Whitespace units: ~12% carry trailing punctuation, some leading
        punctuation, some are capitalised or upper-cased or replaced by a
        symbol token."""
        rng = self.rng
        units = []
        for word in words:
            r = rng.random()
            if r < 0.18:
                word = word.capitalize()
            elif r < 0.21:
                word = word.upper()
            elif r < 0.22:
                word = rng.choice(SYMBOLIC)
            r = rng.random()
            if r < 0.12:
                word += rng.choice(TRAILING)
            elif r < 0.14:
                word = rng.choice(LEADING) + word
            units.append(word)
        return units

    def phrase(self, length: int) -> list[str]:
        """A fixed phrase: rendered once, so every copy is the same text."""
        return self.render(self.words(length))

    def recase(self, units: list[str]) -> list[str]:
        """Upper-case some words of a copy. Case folding makes them match
        again, except words with letters such as "ß" whose upper case does
        not lower back."""
        return [u.upper() if self.rng.random() < 0.05 else u for u in units]


def _length(rng: random.Random, mean: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, round(rng.gauss(mean, mean / 4))))


def _insert(rng: random.Random, units: list[str], span: list[str]) -> list[str]:
    pos = rng.randint(0, len(units))
    return units[:pos] + span + units[pos:]


def _carried(text: _Text, n: int, share: float, pool_size: int, lo: int, hi: int) -> list:
    """The phrase each of ``n`` records carries, or None. Phrase lengths are
    spread evenly over lo..hi, an exact share of the records carries one, and
    every phrase is carried equally often, so the amount of repetition does
    not depend on the seed; which records and which words do."""
    pool = [text.phrase(lo + (hi - lo) * i // max(1, pool_size - 1)) for i in range(pool_size)]
    picks: list = [None] * n
    for k, i in enumerate(text.rng.sample(range(n), round(n * share))):
        picks[i] = pool[k % pool_size]
    return picks


def _stock_phrases(text: _Text, n: int) -> list[dict]:
    rng = text.rng
    rows = []
    for phrase in _carried(text, n, 0.8, max(2, n // 12), 5, 10):
        units = text.render(text.words(_length(rng, 52, 15, 110)))
        if phrase is not None:
            units = _insert(rng, units, text.recase(phrase))
        rows.append({"summary": " ".join(units)})
    return rows


def _long_repeats(text: _Text, n: int) -> list[dict]:
    rng = text.rng
    rows = []
    for span in _carried(text, n, 0.5, max(2, n // 20), 18, 50):
        units = text.render(text.words(_length(rng, 80, 20, 160)))
        if span is not None:
            span = list(span)
            for _ in range(rng.randint(0, 2)):
                span[rng.randrange(len(span))] = text.render(text.words(1))[0]
            units = _insert(rng, units, span)
        rows.append({"summary": " ".join(units)})
    return rows


def _paired_inputs(text: _Text, n: int) -> list[dict]:
    rng = text.rng
    rows = []
    for phrase in _carried(text, n, 0.3, max(2, n // 20), 5, 10):
        source = text.render(text.words(_length(rng, 400, 200, 700)))
        target = _length(rng, 46, 16, 100)
        units: list[str] = []
        while len(units) < target:
            k = rng.randint(6, 15)
            start = rng.randrange(len(source) - k)
            units += source[start : start + k] + text.render(text.words(k))
        if phrase is not None:
            units = _insert(rng, units, phrase)
        rows.append({"summary": " ".join(units), "input": " ".join(source)})
    return rows


# Records per corpus at scale 1. Phrase and span pools grow with the record
# count, so each phrase has the same number of copies at every scale.
GENERATORS = {
    "stock-phrases": (_stock_phrases, 1500),
    "long-repeats": (_long_repeats, 250),
    "paired-inputs": (_paired_inputs, 300),
}


def write_workload(name: str, seed: int, out_dir: Path, scale: float = 1.0) -> list[Path]:
    """Write the workload's four corpora into ``out_dir``; return their paths
    in command-line order."""
    generate, per_corpus = GENERATORS[name]
    records = max(2, round(per_corpus * scale))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for position, (stem, architecture, train) in enumerate(CORPORA):
        # one stream per corpus, so a corpus does not depend on its siblings
        rng = random.Random(f"{name}/{seed}/{position}")
        rows = generate(_Text(rng), records)
        path = out_dir / f"{stem}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for i, row in enumerate(rows):
                obj = {"id": f"{stem}-{i:06d}", **row, "architecture": architecture}
                if train is not None:
                    obj["train_dataset"] = train
                obj["test_dataset"] = TEST_DATASETS[rng.random() < 0.5]
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
        paths.append(path)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies records per corpus")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write_workload(args.workload, args.seed, args.out, args.scale):
        print(path)


if __name__ == "__main__":
    main()
