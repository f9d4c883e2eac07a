"""Measure abstractiveness: which summary n-grams never occur in the input.

Extractive summaries copy long spans, so few of their n-grams are novel;
abstractive ones paraphrase, so novelty climbs with n. The metric is the
percentage of summary n-gram instances absent from the paired input.
"""

from repscope import (
    Corpus,
    SummaryRecord,
    TokenizerConfig,
    Vocabulary,
    abstractiveness_rows,
    length_statistics,
    tokenize,
)

config = TokenizerConfig()
vocab = Vocabulary()  # shared by every summary and input of the corpus

pairs = [
    # near-extractive: the summary lifts a span from the input
    ("e1",
     "The council approved the new housing plan on Tuesday evening.",
     "After hours of debate, the council approved the new housing plan on Tuesday evening before a packed gallery."),
    ("e2",
     "Firefighters contained the blaze within two hours.",
     "Firefighters contained the blaze within two hours and no injuries were reported."),
    # abstractive: same facts, new wording
    ("a1",
     "Local lawmakers gave housing construction the green light.",
     "After hours of debate, the council approved the new housing plan on Tuesday evening before a packed gallery."),
    ("a2",
     "Crews quickly brought the fire under control.",
     "Firefighters contained the blaze within two hours and no injuries were reported."),
]

records = tuple(
    SummaryRecord(
        id=rid,
        text=summary,
        summary=tokenize(summary, config, vocab=vocab),
        input=tokenize(document, config, vocab=vocab),
        architecture="Human",
        test_dataset="demo",
    )
    for rid, summary, document in pairs
)
corpus = Corpus(records=records, name="abstractiveness-demo")

stats = length_statistics(corpus)
print(f"summary lengths: mean {stats.mean:.1f}, median {stats.median:.1f}, "
      f"min {stats.minimum}, max {stats.maximum}\n")

print("percent of summary n-grams absent from the paired input:")
for row in abstractiveness_rows(corpus, (1, 2, 3, 4)):
    print(f"  n={row.n}: {row.percent_novel:6.2f}%")
