import math
import tracemalloc

import numpy as np
import pytest

from repscope.corpus import Corpus
from repscope.errors import EmptyCorpusError, MissingPairedInputError
from repscope import metrics
from repscope.metrics import (
    abstractiveness_rows,
    dataset_repetition_score,
    length_statistics,
    summary_repetition_score,
)
from repscope.ngrams import build_repetition_index

from oracles import abstractiveness_oracle, corpus_from_token_lists, make_record, random_corpus


def scored(corpus, **kwargs):
    index = build_repetition_index(corpus)
    return index, [summary_repetition_score(r, index, **kwargs) for r in corpus.records]


class TestSummaryScore:
    def test_no_repeats_scores_zero(self):
        corpus = corpus_from_token_lists([list("abcd"), list("wxyz")])
        _, scores = scored(corpus)
        assert all(s.m == 0 and s.raw_sum == 0 and s.score == 0.0 for s in scores)

    def test_single_shared_four_gram(self):
        corpus = corpus_from_token_lists(
            [("s1", list("abcd")), ("s2", list("abcd") + ["p"]), ("s3", ["q"] + list("abcd"))]
        )
        _, scores = scored(corpus)
        s1 = scores[0]
        assert (s1.m, s1.raw_sum) == (1, 3)
        assert s1.score == pytest.approx(math.log(4), abs=1e-12)

    def test_nested_types_all_counted(self):
        corpus = corpus_from_token_lists(
            [("s1", list("abcde")), ("s2", list("abcde")), ("s3", list("vwxyz"))]
        )
        _, scores = scored(corpus)
        s1 = scores[0]
        assert (s1.m, s1.raw_sum) == (3, 6)
        assert s1.score == pytest.approx(math.log(7), abs=1e-12)

    def test_maximal_only_drops_nested(self):
        corpus = corpus_from_token_lists([("s1", list("abcde")), ("s2", list("abcde"))])
        _, scores = scored(corpus, mode="maximal_only")
        s1 = scores[0]
        assert (s1.m, s1.raw_sum) == (1, 2)
        assert s1.score == pytest.approx(math.log(3), abs=1e-12)

    def test_maximal_only_keeps_disjoint_repeats(self):
        corpus = corpus_from_token_lists(
            [
                ("s1", list("abcd") + ["u"] + list("wxyz")),
                ("s2", list("abcd")),
                ("s3", list("wxyz")),
            ]
        )
        _, scores = scored(corpus, mode="maximal_only")
        assert scores[0].m == 2

    def test_duplicate_occurrences_count_once(self):
        corpus = corpus_from_token_lists([("s1", list("abcd") + list("abcd")), ("s2", list("abcd"))])
        _, scores = scored(corpus)
        assert scores[0].m == 1

    def test_record_not_in_index_rejected(self):
        corpus = corpus_from_token_lists([("s1", list("abcd")), ("s2", list("abcd"))])
        index = build_repetition_index(corpus)
        outsider = make_record("elsewhere", list("abcd"))
        with pytest.raises(ValueError, match="elsewhere"):
            summary_repetition_score(outsider, index)

    def test_unknown_mode_rejected(self):
        corpus = corpus_from_token_lists([("s1", list("abcd")), ("s2", list("abcd"))])
        index = build_repetition_index(corpus)
        with pytest.raises(ValueError, match="mode"):
            summary_repetition_score(corpus.records[0], index, mode="bogus")

    def test_empty_summary_scores_zero(self):
        corpus = corpus_from_token_lists([("s1", []), ("s2", list("abcd")), ("s3", list("abcd"))])
        _, scores = scored(corpus)
        assert scores[0].score == 0.0


class TestDatasetScore:
    def test_all_repeating(self):
        corpus = corpus_from_token_lists([list("abcd"), list("abcd")])
        index = build_repetition_index(corpus)
        result = dataset_repetition_score(corpus, index)
        assert (result.repeating_summaries, result.total_summaries) == (2, 2)
        assert result.score == 1.0

    def test_two_of_three(self):
        corpus = corpus_from_token_lists(
            [list("abcd"), list("abcde"), list("wxyz")], name="toy"
        )
        index = build_repetition_index(corpus)
        result = dataset_repetition_score(corpus, index)
        assert (result.repeating_summaries, result.total_summaries) == (2, 3)
        assert result.score == pytest.approx(2 / 3)
        assert result.dataset == "toy"

    def test_empty_summaries_stay_in_denominator(self):
        corpus = corpus_from_token_lists([("s1", []), ("s2", list("abcd")), ("s3", list("abcd"))])
        index = build_repetition_index(corpus)
        assert dataset_repetition_score(corpus, index).score == pytest.approx(2 / 3)

    def test_index_corpus_mismatch_rejected(self):
        corpus = corpus_from_token_lists([list("abcd"), list("abcd")])
        other = corpus_from_token_lists([("o1", list("abcd")), ("o2", list("abcd"))])
        index = build_repetition_index(corpus)
        with pytest.raises(ValueError, match="not built over"):
            dataset_repetition_score(other, index)

    def test_four_gram_equivalence(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            corpus = random_corpus(rng, max_summaries=40)
            index = build_repetition_index(corpus)
            via_all = dataset_repetition_score(corpus, index)
            via_four = set()
            for gram, ids in index.entries.items():
                if len(gram) == index.min_n:
                    via_four.update(ids)
            assert via_all.repeating_summaries == len(via_four)

    def test_aggregation_consistency(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            corpus = random_corpus(rng, max_summaries=40)
            index = build_repetition_index(corpus)
            dataset = dataset_repetition_score(corpus, index)
            per_summary = [summary_repetition_score(r, index) for r in corpus.records]
            assert dataset.repeating_summaries == sum(1 for s in per_summary if s.m > 0)
            for s in per_summary:
                # each counted n-gram sits in at least two summaries
                assert s.raw_sum >= 2 * s.m
                assert (s.score == 0.0) == (s.m == 0)

    def test_monotone_under_new_sharing_summary(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            corpus = random_corpus(rng, max_summaries=20, vocab_lo=10, vocab_hi=15)
            target = next((r for r in corpus.records if r.length_tokens >= 4), None)
            if target is None:
                continue
            index = build_repetition_index(corpus)
            before = summary_repetition_score(target, index).score
            extra = make_record("extra", target.summary.tokens[:4])
            grown = Corpus(records=corpus.records + (extra,), name="grown")
            after = summary_repetition_score(target, build_repetition_index(grown)).score
            assert after >= before


class TestAbstractiveness:
    def test_full_copy_is_zero(self):
        records = [make_record("s1", list("abcdef"), input_tokens=list("abcdef"))]
        corpus = Corpus(records=tuple(records), name="copy")
        for n in (1, 2, 3, 4):
            assert abstractiveness_rows(corpus, (n,))[0].percent_novel == 0.0

    def test_disjoint_vocabulary_is_hundred(self):
        records = [make_record("s1", list("abcdef"), input_tokens=list("uvwxyz"))]
        # r1's summary is r2's input: windows match only within one record
        crossed = [
            make_record("r1", list("abcdef"), input_tokens=list("uvwxyz")),
            make_record("r2", list("ghijkl"), input_tokens=list("abcdef")),
        ]
        for recs in (records, crossed):
            corpus = Corpus(records=tuple(recs), name="disjoint")
            for n in (1, 2, 3, 4):
                assert abstractiveness_rows(corpus, (n,))[0].percent_novel == 100.0

    def _mixed(self):
        return Corpus(
            records=(
                make_record("r1", ["a", "b", "c", "d"], input_tokens=["a", "b", "x", "y"]),
                make_record("r2", ["a", "b"], input_tokens=["a", "b"]),
                make_record("r3", ["q"], input_tokens=["z"]),
                make_record("r4", [], input_tokens=["a"]),
            ),
            name="mixed",
        )

    def test_mixed_fixture_hand_counts(self):
        corpus = self._mixed()
        assert abstractiveness_rows(corpus, (1,))[0].percent_novel == pytest.approx(300 / 7)
        assert abstractiveness_rows(corpus, (2,))[0].percent_novel == pytest.approx(50.0)

    def test_summaries_shorter_than_n_contribute_nothing(self):
        corpus = Corpus(
            records=(make_record("s1", ["a"], input_tokens=["b"]),), name="short"
        )
        assert abstractiveness_rows(corpus, (4,))[0].percent_novel == 0.0
        assert abstractiveness_rows(corpus, (10**12,))[0].percent_novel == 0.0

    def test_missing_input_names_records(self):
        corpus = Corpus(
            records=(
                make_record("ok", list("abcd"), input_tokens=list("abcd")),
                make_record("bad", list("abcd")),
            ),
            name="m",
        )
        with pytest.raises(MissingPairedInputError, match="bad") as info:
            abstractiveness_rows(corpus, (2,))[0]
        assert info.value.record_ids == ["bad"]

    def test_bounds_on_random_corpora(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            base = random_corpus(rng, max_summaries=15)
            records = tuple(
                make_record(
                    r.id,
                    r.summary.tokens,
                    input_tokens=[f"w{v}" for v in rng.integers(0, 20, size=12)],
                )
                for r in base.records
            )
            corpus = Corpus(records=records, name="r")
            for n in (1, 2, 4):
                assert 0.0 <= abstractiveness_rows(corpus, (n,))[0].percent_novel <= 100.0

    def test_n_validated(self):
        with pytest.raises(ValueError):
            abstractiveness_rows(self._mixed(), (0,))[0]
        for ns in ((), (2, 0), (-1,)):
            with pytest.raises(ValueError):
                abstractiveness_rows(self._mixed(), ns)

    def test_oracle_equivalence_on_random_corpora(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            base = random_corpus(rng, max_summaries=30, vocab_lo=4, vocab_hi=12)
            records = []
            for r in base.records:
                # a random input, sometimes holding a copied span of the summary
                start = int(rng.integers(0, len(r.summary.tokens) + 1))
                copied = r.summary.tokens[start : start + int(rng.integers(0, 8))]
                noise = [f"w{v}" for v in rng.integers(0, 12, size=int(rng.integers(0, 25)))]
                cut = int(rng.integers(0, len(noise) + 1))
                source = noise[:cut] + list(copied) + noise[cut:]
                records.append(make_record(r.id, r.summary.tokens, input_tokens=source))
            corpus = Corpus(records=tuple(records), name="r")
            for n in (1, 2, 3, 4):
                (row,) = abstractiveness_rows(corpus, (n,))
                assert row.percent_novel == abstractiveness_oracle(corpus, n)
            # all lengths in one call, unsorted; summaries hold at most 30 tokens
            ns = (4, 1, 9, 2, 3, 31)
            rows = abstractiveness_rows(corpus, ns)
            assert [row.n for row in rows] == list(ns)
            for row in rows:
                assert row.percent_novel == abstractiveness_oracle(corpus, row.n)

    @pytest.mark.parametrize("block_tokens", [1, 37, 10**9])
    def test_block_size_does_not_change_counts(self, monkeypatch, block_tokens):
        rng = np.random.default_rng(43)
        base = random_corpus(rng, max_summaries=40, vocab_lo=4, vocab_hi=10)
        def words(size):
            return [f"w{v}" for v in rng.integers(0, 10, size=size)]

        records = [
            make_record(r.id, r.summary.tokens, input_tokens=words(int(rng.integers(0, 20))))
            for r in base.records
        ]
        # one record longer than a 37-token block, in the middle of the corpus
        summary = words(30)
        records.insert(len(records) // 2, make_record("long", summary, input_tokens=summary[5:25]))
        corpus = Corpus(records=tuple(records), name="blocks")
        monkeypatch.setattr(metrics, "_BLOCK_TOKENS", block_tokens)
        # the scan's last level is 9, 1 or 2
        for ns in ((4, 1, 9, 2, 3), (1,), (2,)):
            rows = abstractiveness_rows(corpus, ns)
            assert [row.n for row in rows] == list(ns)
            for row in rows:
                assert row.percent_novel == abstractiveness_oracle(corpus, row.n)

    def test_traced_peak_per_token(self):
        # each level of the paired scan keeps only narrow arrays it still
        # reads: the traced peak is divided by the 100,000 summary plus
        # input tokens of the corpus
        rng = np.random.default_rng(0)
        records = []
        for i in range(250):
            source = [f"w{v}" for v in rng.integers(0, 5000, size=360)]
            start = int(rng.integers(0, 340))
            summary = source[start : start + 20] + [f"w{v}" for v in rng.integers(0, 5000, size=20)]
            records.append(make_record(f"s{i}", summary, input_tokens=source))
        corpus = Corpus(records=tuple(records), name="paired")
        tokens = sum(len(rec.summary) + len(rec.input) for rec in records)
        assert tokens == 100_000
        tracemalloc.start()
        try:
            rows = abstractiveness_rows(corpus, (1, 2, 3, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < rows[3].percent_novel < 100
        assert peak / tokens < 50


class TestLengthStatistics:
    def test_mean_median_min_max(self):
        corpus = corpus_from_token_lists(
            [["w"] * 10, ["w"] * 20, ["w"] * 30]
        )
        stats = length_statistics(corpus)
        assert stats == (20.0, 20.0, 10, 30)

    def test_single_record(self):
        corpus = corpus_from_token_lists([["w"] * 7])
        stats = length_statistics(corpus)
        assert stats == (7.0, 7.0, 7, 7)

    def test_even_count_median(self):
        corpus = corpus_from_token_lists([["w"] * 2, ["w"] * 4, ["w"] * 6, ["w"] * 20])
        assert length_statistics(corpus).median == 5.0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            length_statistics(Corpus(records=(), name="empty"))
