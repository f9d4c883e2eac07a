"""Attribute repetition to architecture, datasets, and domain shift.

Simulates summaries from two architectures trained and tested across two
datasets, plants a real cross-domain effect (models echo a stock phrase
far more often off-domain), then fits the one-hot OLS design and runs the
likelihood ratio test asking whether train x test interactions matter.
"""

import numpy as np

from dataclasses import replace

from repscope import (
    Corpus,
    RegressionSpec,
    SummaryRecord,
    Vocabulary,
    build_design_matrix,
    build_repetition_index,
    likelihood_ratio_test,
    ols_fit,
    summary_repetition_score,
    tokenize,
)

rng = np.random.default_rng(7)

ARCHS = ("Human", "EchoNet")
DATASETS = ("news", "papers")
STOCK = "officials said the matter remains under review".split()

records = []
vocab = Vocabulary()  # the records of one corpus number their tokens in one vocabulary
for i in range(4000):
    arch = ARCHS[rng.integers(0, 2)]
    test = DATASETS[rng.integers(0, 2)]
    train = None if arch == "Human" else DATASETS[rng.integers(0, 2)]
    length = int(rng.integers(12, 50))
    tokens = [f"w{v}" for v in rng.integers(0, 40000, size=length)]
    # cross-domain systems fall back on boilerplate much more often
    if arch != "Human":
        echo_prob = 0.55 if train != test else 0.15
        if rng.random() < echo_prob:
            pos = int(rng.integers(0, length - len(STOCK) + 1))
            tokens[pos : pos + len(STOCK)] = STOCK
    text = " ".join(tokens)
    records.append(
        SummaryRecord(id=f"s{i}", text=text, summary=tokenize(text, vocab=vocab),
                      architecture=arch, train_dataset=train, test_dataset=test)
    )

corpus = Corpus(records=tuple(records), name="simulated")
index = build_repetition_index(corpus)
scores = [summary_repetition_score(r, index).score for r in corpus.records]

spec = RegressionSpec(
    reference_architecture="Human", reference_train="news", reference_test="news"
)
design = build_design_matrix(corpus.records, scores, spec)
fit = ols_fit(design, confidence_level=spec.confidence_level)

print(f"{design.n_rows} rows x {design.n_cols} columns\n")
print(f"{'predictor':24s} {'coef':>9s} {'p':>9s}")
for j, name in enumerate(fit.column_names):
    print(f"{name:24s} {fit.coefficients[j]:9.4f} {fit.p_values[j]:9.3g}")

nested_design = build_design_matrix(
    corpus.records, scores, replace(spec, include_interactions=False)
)
nested_fit = ols_fit(nested_design, confidence_level=spec.confidence_level)
lr = likelihood_ratio_test(fit, nested_fit, critical_value=spec.lr_critical_value)
print(
    f"\nLR test (interactions vs none): statistic {lr.statistic:.1f} "
    f"on {lr.df} df, p = {lr.p_value:.3g}, reject at {lr.critical_value}: {lr.reject}"
)
