"""Surface the most widely shared phrases from a formulaic synthetic corpus.

Builds 2000 summaries where 60% embed one of twelve stock phrases, then
lists the top repeating n-grams with their count/total frequency, the way
an analyst would scan for boilerplate, ads, or disclaimers leaking into
generated text.
"""

import numpy as np

from repscope import (
    Corpus,
    SummaryRecord,
    Vocabulary,
    build_repetition_index,
    index_export_lines,
    tokenize,
    top_repeats,
)

rng = np.random.default_rng(42)

stock_phrases = [
    "subscribe to our newsletter for daily updates",
    "further research is needed to confirm these findings",
    "the full report is available on our website",
    "share this story with your friends and family",
    "officials did not respond to requests for comment",
    "more details are expected later this week",
    "terms and conditions apply to this offer",
    "here is everything you need to know",
    "a spokesperson declined to comment on the matter",
    "the incident remains under active investigation",
    "residents were urged to avoid the area",
    "no injuries were reported at the scene",
]

records = []
vocab = Vocabulary()  # the records of one corpus number their tokens in one vocabulary
for i in range(2000):
    tokens = [f"word{v}" for v in rng.integers(0, 8000, size=rng.integers(15, 40))]
    if rng.random() < 0.6:
        phrase = stock_phrases[rng.integers(0, len(stock_phrases))].split()
        pos = rng.integers(0, len(tokens) - len(phrase) + 1)
        tokens[pos : pos + len(phrase)] = phrase
    text = " ".join(tokens)
    records.append(
        SummaryRecord(id=f"s{i}", text=text, summary=tokenize(text, vocab=vocab),
                      architecture="DemoSystem", train_dataset="synthetic",
                      test_dataset="synthetic")
    )

corpus = Corpus(records=tuple(records), name="formulaic-demo")
index = build_repetition_index(corpus)

print(f"{len(index.entries)} repeating n-gram types, longest n = {index.max_observed_n}\n")
print("top repeats (count/total):")
for row in top_repeats(index, limit=12, min_count=25):
    print(f"  {row.count}/{row.corpus_size}  {' '.join(row.ngram)}")

print("\nfirst export lines (the JSONL interchange format):")
for line in index_export_lines(top_repeats(index, limit=3)):
    print(" ", line)
