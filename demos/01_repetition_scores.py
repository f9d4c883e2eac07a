"""Walk through the core repetition metrics on a hand-sized corpus.

A summarizer that reuses the same long phrase across unrelated inputs gets
caught by the cross-summary n-gram index: any n-gram of four or more
tokens appearing in two or more summaries is "repeating". The dataset
score is the fraction of summaries holding at least one such n-gram; the
per-summary score is ln(1 + sum of containing-summary counts over the
summary's repeating n-grams).
"""

from repscope import (
    Corpus,
    SummaryRecord,
    TokenizerConfig,
    Vocabulary,
    build_repetition_index,
    dataset_repetition_score,
    summary_repetition_score,
    tokenize,
)

config = TokenizerConfig()  # case folding on, punctuation split off tokens
vocab = Vocabulary()  # the records of one corpus number their tokens in one vocabulary

texts = {
    "sys1": "Sign up for our free daily sports briefing. Stoke sign a defender.",
    "sys2": "Sign up for our free daily sports briefing. United chase a striker.",
    "sys3": "Rain delayed play on the second day of the test match.",
    "sys4": "The committee voted to adjourn until further notice.",
}

records = tuple(
    SummaryRecord(
        id=rid,
        text=text,
        summary=tokenize(text, config, vocab=vocab),
        architecture="DemoSystem",
        train_dataset="news",
        test_dataset="news",
    )
    for rid, text in texts.items()
)
corpus = Corpus(records=records, name="demo")

index = build_repetition_index(corpus, min_n=4)
print(f"indexed {index.corpus_size} summaries")
print(f"repeating n-gram types: {len(index.entries)} (longest length {index.max_observed_n})")

# sys1 and sys2 share the whole lead-in sentence, so every window of it repeats
print("\nper-summary scores:")
for record in corpus.records:
    score = summary_repetition_score(record, index)
    print(f"  {record.id}: m={score.m:3d}  raw_sum={score.raw_sum:3d}  score={score.score:.4f}")

dataset = dataset_repetition_score(corpus, index)
print(
    f"\ndataset score: {dataset.repeating_summaries}/{dataset.total_summaries}"
    f" = {dataset.score:.2f}"
)
