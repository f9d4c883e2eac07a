import numpy as np

from repscope.metrics import (
    AbstractivenessRow,
    DatasetRepetitionScore,
    LengthStats,
    SummaryRepetitionScore,
)
from repscope.ngrams import RepeatRow
from repscope.regression import RegressionFit
from repscope import reports


class TestPrimitives:
    def test_format_freq(self):
        assert reports.format_freq(73, 11490) == "73/11490"
        assert reports.format_freq(2, 3) == "2/3"

    def test_csv_quotes_commas_and_newlines(self):
        text = reports.csv_text(("a", "b"), [("x,y", "line\nbreak")])
        assert text == 'a,b\n"x,y","line\nbreak"\n'

    def test_markdown_table_shape(self):
        text = reports.markdown_table(("H1", "H2"), [("a", "b")])
        assert text.splitlines() == ["| H1 | H2 |", "| --- | --- |", "| a | b |"]

    def test_number_round_trips(self):
        value = 0.07338803477074043
        assert float(reports.number(value)) == value

    def test_ngram_size_labels(self):
        assert [reports.ngram_size_label(n) for n in (1, 2, 3, 4, 7)] == [
            "Unigram", "Bigram", "Trigram", "4-gram", "7-gram",
        ]


class TestRenderers:
    def test_dataset_scores_csv(self):
        rows = [DatasetRepetitionScore("cnn", 69, 100, 0.69)]
        assert reports.dataset_scores_csv(rows) == (
            "dataset,repeating_summaries,total_summaries,score\ncnn,69,100,0.69\n"
        )

    def test_dataset_scores_markdown_rounds(self):
        rows = [DatasetRepetitionScore("cnn", 2, 3, 2 / 3)]
        assert "| cnn | 2 | 3 | 0.67 |" in reports.dataset_scores_markdown(rows)

    def test_summary_scores_csv(self):
        rows = [SummaryRepetitionScore("s1", 1, 3, 1.3862943611198906)]
        assert reports.summary_scores_csv(rows) == (
            "id,m,raw_sum,score\ns1,1,3,1.3862943611198906\n"
        )

    def test_repeats_rendering(self):
        row = RepeatRow(("a", "b", "c", "d"), 2, 3, frozenset({"s2", "s1"}))
        texts = {"s1": "a b c d and more", "s2": "more a b c d"}
        csv_text = reports.repeats_csv([row], texts)
        assert "a b c d,4,2,3,2/3,s1,a b c d and more" in csv_text
        md = reports.repeats_markdown([row], texts)
        assert "| a b c d | 2/3 | a b c d and more |" in md

    def test_abstractiveness_markdown_wide_layout(self):
        rows = [AbstractivenessRow("xsum", n, p) for n, p in ((1, 40.4), (2, 81.47), (4, 93.64))]
        md = reports.abstractiveness_markdown(rows)
        assert md.splitlines()[0] == "| Dataset | Unigram | Bigram | 4-gram |"
        assert "| xsum | 40.40 | 81.47 | 93.64 |" in md

    def test_lengths_rendering(self):
        rows = [("cnn", LengthStats(52.12, 48.0, 8, 210))]
        assert "cnn,52.12,48.0,8,210" in reports.lengths_csv(rows)
        assert "| cnn | 52.12 | 48.0 | 8 | 210 |" in reports.lengths_markdown(rows)

    def test_fit_markdown_header_tracks_confidence(self):
        fit = RegressionFit(
            column_names=("Intercept",),
            coefficients=np.array([1.9388]),
            standard_errors=np.array([0.01]),
            t_statistics=np.array([190.0]),
            p_values=np.array([0.0]),
            ci_lower=np.array([1.913]),
            ci_upper=np.array([1.965]),
            rss=10.0,
            n_rows=100,
            n_params=1,
            confidence_level=0.95,
        )
        md = reports.fit_markdown(fit)
        assert md.splitlines()[0] == "|  | Coef | P>|t| | [0.025 | 0.975] |"
        assert "| Intercept | 1.9388 | 0.000 | 1.913 | 1.965 |" in md
