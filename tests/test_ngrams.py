import json
import tracemalloc

import numpy as np
import pytest

from repscope import ngrams
from repscope.errors import EmptyCorpusError
from repscope.corpus import Corpus, load_corpus, tokenize
from repscope.metrics import abstractiveness_rows, summary_repetition_score
from repscope.ngrams import (
    build_repetition_index,
    index_export_lines,
    top_repeats,
)

from conftest import write_jsonl
from oracles import (
    abstractiveness_oracle,
    corpus_from_token_lists,
    eq1_oracle,
    formulaic_corpus,
    make_record,
    pairwise_index_oracle,
    random_corpus,
)


class TestBuildIndex:
    def test_minimal_repeat(self):
        corpus = corpus_from_token_lists([("s1", list("abcd")), ("s2", list("abcd"))])
        index = build_repetition_index(corpus)
        assert index.entries == {tuple("abcd"): frozenset({"s1", "s2"})}
        assert index.max_observed_n == 4
        assert index.corpus_size == 2

    def test_nested_lengths_and_termination(self):
        corpus = corpus_from_token_lists(
            [("s1", list("abcde")), ("s2", list("abcde")), ("s3", list("xyzw"))]
        )
        index = build_repetition_index(corpus)
        both = frozenset({"s1", "s2"})
        assert index.entries == {
            tuple("abcd"): both,
            tuple("bcde"): both,
            tuple("abcde"): both,
        }
        assert index.max_observed_n == 5

    def test_equal_id_sets_share_one_object(self):
        corpus = corpus_from_token_lists(
            [("s1", list("abcdefg")), ("s2", list("abcdefg")), ("s3", list("abcdxyz")),
             ("s4", list("pqrstu")), ("s5", list("xpqrstu"))]
        )
        values = list(build_repetition_index(corpus).entries.values())
        assert len(values) > 3
        assert len({id(ids) for ids in values}) == len(set(values)) == 3

    def test_no_repeats_gives_empty_index(self):
        corpus = corpus_from_token_lists([list("abcd"), list("efgh")])
        index = build_repetition_index(corpus)
        assert index.entries == {}
        assert index.max_observed_n == 0

    def test_within_summary_occurrences_do_not_repeat(self):
        corpus = corpus_from_token_lists([list("abcdabcd"), list("qrstuvwx")])
        index = build_repetition_index(corpus)
        assert index.entries == {}

    def test_membership_counts_summaries_not_occurrences(self):
        corpus = corpus_from_token_lists([("s1", list("abcdabcd")), ("s2", list("abcd"))])
        index = build_repetition_index(corpus)
        assert index.entries[tuple("abcd")] == frozenset({"s1", "s2"})

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_repetition_index(Corpus(records=(), name="empty"))

    def test_min_n_validated(self):
        corpus = corpus_from_token_lists([list("abcd")])
        with pytest.raises(ValueError):
            build_repetition_index(corpus, min_n=0)

    def test_repr_is_short_and_indexes_compare_by_identity(self):
        corpus = random_corpus(np.random.default_rng(3), max_summaries=200, vocab_lo=2, vocab_hi=4)
        index = build_repetition_index(corpus)
        again = build_repetition_index(corpus)
        assert index.row_count.size > 100
        assert len(repr(index)) < 100
        assert index == index and index != again

    def test_custom_min_n(self):
        corpus = corpus_from_token_lists([("s1", list("ab")), ("s2", list("ab"))])
        index = build_repetition_index(corpus, min_n=2)
        assert tuple("ab") in index.entries
        assert index.min_n == 2

    def test_token_count_below_int32_limit(self, monkeypatch):
        # windows are numbered in int32, so a corpus of 2**31 tokens is
        # refused rather than wrapped; here the limit is lowered to 8
        corpus = corpus_from_token_lists([list("abcd"), list("abcd")])
        monkeypatch.setattr(ngrams, "_MAX_TOKENS", 9)
        assert build_repetition_index(corpus).max_observed_n == 4
        monkeypatch.setattr(ngrams, "_MAX_TOKENS", 8)
        with pytest.raises(ValueError, match="8 tokens in 2 documents.*below 8"):
            build_repetition_index(corpus)

    def test_traced_peak_per_summary_token(self):
        # each level keeps only narrow arrays it still reads: the traced peak
        # of building the index, the index included, is divided by the
        # corpus's 98,721 summary tokens
        corpus = formulaic_corpus(1_650, 60, seed=0)
        tokens = sum(len(rec.summary) for rec in corpus.records)
        assert tokens == 98_721
        tracemalloc.start()
        try:
            index = build_repetition_index(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.max_observed_n == 10
        assert peak / tokens < 40


class TestTopRepeats:
    def _index(self):
        return build_repetition_index(
            corpus_from_token_lists(
                [
                    ("s1", list("abcde") + ["x1", "x2"]),
                    ("s2", list("abcde") + ["y1", "y2"]),
                    ("s3", list("abcd") + ["z1", "z2", "z3"]),
                ]
            )
        )

    def test_ordering_count_then_length_then_tokens(self):
        rows = top_repeats(self._index(), limit=10)
        assert [(" ".join(r.ngram), r.count) for r in rows] == [
            ("a b c d", 3),
            ("a b c d e", 2),
            ("b c d e", 2),
        ]
        assert all(r.corpus_size == 3 for r in rows)

    def test_limit(self):
        assert len(top_repeats(self._index(), limit=1)) == 1

    def test_min_count_filters(self):
        rows = top_repeats(self._index(), limit=10, min_count=3)
        assert [r.count for r in rows] == [3]

    def test_min_count_above_max_gives_empty(self):
        assert top_repeats(self._index(), limit=10, min_count=10) == []

    @pytest.mark.parametrize("min_count", [2, 3, 5])
    def test_rows_equal_prefix_of_oracle_sort(self, min_count):
        # every limit, so many cut inside a group of rows tied on (count, n)
        rng = np.random.default_rng(min_count)
        cuts_in_ties = 0
        for _ in range(12):
            corpus = random_corpus(rng, max_summaries=40, max_len=20, vocab_lo=2, vocab_hi=4)
            oracle_entries, _ = pairwise_index_oracle(corpus)
            ranked = sorted(
                ((gram, ids) for gram, ids in oracle_entries.items() if len(ids) >= min_count),
                key=lambda e: (-len(e[1]), -len(e[0]), e[0]),
            )
            index = build_repetition_index(corpus)
            for limit in range(1, len(ranked) + 2):
                rows = top_repeats(index, limit, min_count)
                assert [(r.ngram, set(r.ids), r.count) for r in rows] == [
                    (gram, ids, len(ids)) for gram, ids in ranked[:limit]
                ]
            cuts_in_ties += sum(
                (len(a[1]), len(a[0])) == (len(b[1]), len(b[0]))
                for a, b in zip(ranked, ranked[1:])
            )
        assert cuts_in_ties > 0

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            top_repeats(self._index(), limit=0)

    def test_lexicographic_tie_break(self):
        corpus = corpus_from_token_lists(
            [("s1", list("abcd") + ["q"] + list("wxyz")), ("s2", list("abcd") + ["r"] + list("wxyz"))]
        )
        rows = top_repeats(build_repetition_index(corpus), limit=10)
        assert [" ".join(r.ngram) for r in rows] == ["a b c d", "w x y z"]


    def test_rows_equal_prefix_of_full_sort(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            corpus = random_corpus(rng, max_summaries=40, vocab_lo=2, vocab_hi=6)
            index = build_repetition_index(corpus)
            ranked = sorted(index.entries.items(), key=lambda e: (-len(e[1]), -len(e[0]), e[0]))
            total = len(ranked)
            for limit in {1, 2, 5, 50, total, total + 1} - {0}:
                rows = top_repeats(index, limit)
                assert [(r.ngram, r.ids) for r in rows] == ranked[:limit]
                for row in rows:
                    assert row.count == len(row.ids)
                    assert row.example_id == min(row.ids)
                    assert row.corpus_size == index.corpus_size


class TestExport:
    def test_jsonl_shape_and_order(self):
        index = build_repetition_index(
            corpus_from_token_lists([("s1", list("abcde")), ("s2", list("abcde"))])
        )
        lines = [
            json.loads(line) for line in index_export_lines(top_repeats(index, limit=10))
        ]
        assert [row["n"] for row in lines] == [5, 4, 4]
        assert all(set(row) == {"ngram", "n", "count"} for row in lines)

    def test_ids_flag_gated_and_sorted(self):
        index = build_repetition_index(
            corpus_from_token_lists([("s2", list("abcd")), ("s1", list("abcd"))])
        )
        rows = top_repeats(index, limit=10)
        (row,) = [json.loads(line) for line in index_export_lines(rows, with_ids=True)]
        assert row["ids"] == ["s1", "s2"]

    def test_empty_index_exports_nothing(self):
        index = build_repetition_index(corpus_from_token_lists([list("abcd"), list("wxyz")]))
        assert list(index_export_lines(top_repeats(index, limit=10))) == []


class TestIndexProperties:
    def test_oracle_equivalence_on_random_corpora(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            corpus = random_corpus(rng, max_summaries=40)
            index = build_repetition_index(corpus)
            oracle_entries, oracle_max = pairwise_index_oracle(corpus)
            assert {g: set(ids) for g, ids in index.entries.items()} == oracle_entries
            assert index.max_observed_n == oracle_max

    def test_downward_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            corpus = random_corpus(rng, max_summaries=40, vocab_lo=10, vocab_hi=20)
            index = build_repetition_index(corpus)
            for gram, ids in index.entries.items():
                if len(gram) == index.min_n:
                    continue
                for sub in (gram[:-1], gram[1:]):
                    assert sub in index.entries
                    assert index.entries[sub] >= ids

    def test_order_invariance(self):
        rng = np.random.default_rng(13)
        corpus = random_corpus(rng, max_summaries=30, vocab_lo=10, vocab_hi=15)
        index = build_repetition_index(corpus)
        shuffled = list(corpus.records)
        rng.shuffle(shuffled)
        permuted = build_repetition_index(Corpus(records=tuple(shuffled), name="p"))
        assert permuted.entries == index.entries
        assert permuted.max_observed_n == index.max_observed_n

    def test_every_entry_has_at_least_two_ids(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            corpus = random_corpus(rng, max_summaries=30)
            index = build_repetition_index(corpus)
            assert all(len(ids) >= 2 for ids in index.entries.values())

    @pytest.mark.parametrize("min_n", range(1, 6))
    def test_row_layout(self, min_n):
        # rows run by n, then by the lexicographic order of their tokens'
        # first-seen ids; each row's pair_docs slice is its summaries'
        # document numbers, strictly ascending
        rng = np.random.default_rng(40 + min_n)
        for _ in range(80):
            corpus = random_corpus(rng, max_summaries=25, max_len=20, vocab_lo=2, vocab_hi=6)
            index = build_repetition_index(corpus, min_n=min_n)
            oracle_entries, _ = pairwise_index_oracle(corpus, min_n)
            arrays = (index.row_n, index.row_doc, index.row_offset, index.row_count, index.pair_docs)
            assert [a.dtype for a in arrays] == [np.dtype(np.int64)] * 5
            assert index.pair_docs.size == index.row_count.sum()
            first_seen: dict[str, int] = {}
            for tokens in index.documents:
                for token in tokens:
                    first_seen.setdefault(token, len(first_seen))
            doc_of = {rid: d for d, rid in enumerate(index.summary_ids)}
            ends = np.cumsum(index.row_count).tolist()
            keys = []
            for n, d, off, size, end in zip(*(a.tolist() for a in arrays[:4]), ends):
                gram = index.documents[d][off : off + n]
                assert len(gram) == n
                docs = index.pair_docs[end - size : end].tolist()
                assert docs == sorted({doc_of[rid] for rid in oracle_entries[gram]})
                keys.append((n, tuple(first_seen[token] for token in gram)))
            assert len(set(keys)) == len(keys) == len(oracle_entries)
            assert keys == sorted(keys)

    def test_loaded_corpus_with_paired_inputs(self, tmp_path):
        # a loaded corpus numbers summaries and inputs in one vocabulary, so
        # input-only tokens take ids between the summaries' ones and the
        # index's level-1 classes have gaps; rows still run by n, then by
        # the lexicographic order of their tokens' ids
        rng = np.random.default_rng(47)
        gaps = 0
        for trial in range(30):
            def words(high, size):
                return [f"w{v}" for v in rng.integers(0, high, size=size)]

            lines = []
            for i in range(int(rng.integers(2, 25))):
                summary = words(5, int(rng.integers(0, 16)))
                start = int(rng.integers(0, len(summary) + 1))
                source = words(10, int(rng.integers(0, 12))) + summary[start : start + 6]
                lines.append({"id": f"s{i}", "summary": " ".join(summary),
                              "input": " ".join(source), "architecture": "A",
                              "test_dataset": "d"})
            corpus = load_corpus(write_jsonl(tmp_path / f"c{trial}.jsonl", lines))
            in_summaries = {i for rec in corpus.records for i in rec.summary.ids}
            gaps += max(in_summaries, default=-1) + 1 > len(in_summaries)
            for min_n in (1, 4):
                index = build_repetition_index(corpus, min_n)
                oracle_entries, oracle_max = pairwise_index_oracle(corpus, min_n)
                assert {g: set(ids) for g, ids in index.entries.items()} == oracle_entries
                assert index.max_observed_n == oracle_max
                rows = zip(index.row_n.tolist(), index.row_doc.tolist(),
                           index.row_offset.tolist())
                keys = [(n, tuple(index.documents[d].ids[off : off + n])) for n, d, off in rows]
                assert keys == sorted(keys)
                assert len(set(keys)) == len(keys) == len(oracle_entries)
            ns = (1, 2, 3, 4)
            assert [row.percent_novel for row in abstractiveness_rows(corpus, ns)] == [
                abstractiveness_oracle(corpus, n) for n in ns
            ]
        assert gaps > 0


class TestAdversarialCorpora:
    """Worst cases and document-boundary cases, checked against the
    all-pairs oracle and the direct Eq.1 scorer in both modes."""

    def _check(self, corpus, min_n=4):
        index = build_repetition_index(corpus, min_n)
        oracle_entries, oracle_max = pairwise_index_oracle(corpus, min_n)
        assert {g: set(ids) for g, ids in index.entries.items()} == oracle_entries
        assert index.max_observed_n == oracle_max
        for record in corpus.records:
            for maximal_only, mode in ((False, "all_ngrams"), (True, "maximal_only")):
                got = summary_repetition_score(record, index, mode=mode)
                m, raw, score = eq1_oracle(record, oracle_entries, min_n, maximal_only=maximal_only)
                assert (got.m, got.raw_sum) == (m, raw), (record.id, mode)
                assert abs(got.score - score) <= 1e-12
        return index

    def test_identical_summaries(self):
        rng = np.random.default_rng(23)
        tokens = [f"w{v}" for v in rng.integers(0, 6, size=40)]
        corpus = corpus_from_token_lists([tokens] * 50)
        index = self._check(corpus)
        assert index.max_observed_n == len(tokens)
        assert all(len(ids) == 50 for ids in index.entries.values())

    def test_one_long_summary_among_short_ones(self):
        rng = np.random.default_rng(29)
        long_tokens = [f"w{v}" for v in rng.integers(0, 30, size=2000)]
        token_lists = [long_tokens]
        for i in range(40):
            if i % 2:
                start = int(rng.integers(0, 1980))
                token_lists.append(long_tokens[start : start + int(rng.integers(4, 20))])
            else:
                token_lists.append([f"w{v}" for v in rng.integers(0, 30, size=12)])
        index = self._check(corpus_from_token_lists(token_lists))
        assert index.max_observed_n >= 4

    def test_empty_and_punctuation_only_summaries_interleaved(self):
        texts = [
            "",
            "The cat sat on the mat, twice.",
            "!!! ... ?",
            "   ",
            "the cat sat on the mat",
            "\u2003\u00a0",
            "!!! ... ? !!!",
            "",
            "and then the cat sat on the mat!",
            "...",
            "!!! ... ?",
            "",
        ]
        records = [make_record(f"s{i}", tokenize(text).tokens) for i, text in enumerate(texts)]
        corpus = Corpus(records=tuple(records), name="gaps")
        for min_n in (1, 2, 4):
            index = self._check(corpus, min_n)
        assert tuple("the cat sat on".split()) in index.entries
        assert ("!", "!", "!", ".") in index.entries

    def test_windows_do_not_cross_summaries(self):
        # laid end to end, s0 and s1 spell "a b c d" across their boundary
        corpus = corpus_from_token_lists(
            [("s0", ["a", "b"]), ("s1", ["c", "d"]), ("s2", list("abcd")), ("s3", list("abcd"))]
        )
        for min_n in (1, 2, 4):
            index = self._check(corpus, min_n)
            assert index.entries[tuple("abcd")] == frozenset({"s2", "s3"})


class TestSharedLevels:
    """The window-class kernel against brute force over every window."""

    @staticmethod
    def _levels(docs):
        # level-1 classes are a random dense numbering of the vocabulary
        rng = np.random.default_rng(len(docs))
        vocab = sorted({t for tokens in docs for t in tokens})
        label = dict(zip(vocab, rng.permutation(len(vocab)).tolist()))
        flat = [t for tokens in docs for t in tokens]
        cls = np.array([label[t] for t in flat], dtype=np.int32)
        doc = np.repeat(np.arange(len(docs), dtype=np.int32), [len(t) for t in docs])
        levels = [
            (n, pos.tolist(), doc_.tolist(), cls_.tolist(), n_classes)
            for n, pos, doc_, cls_, n_classes in ngrams._shared_levels(cls, len(vocab), doc, len(docs))
        ]
        return levels, flat, doc.tolist(), label

    @staticmethod
    def _shared_windows(flat, doc, n):
        """(start, n-gram) of every window held by two or more documents."""
        windows = [
            (p, tuple(flat[p : p + n])) for p in range(len(flat) - n + 1) if doc[p] == doc[p + n - 1]
        ]
        holders: dict[tuple, set[int]] = {}
        for p, gram in windows:
            holders.setdefault(gram, set()).add(doc[p])
        return [(p, gram) for p, gram in windows if len(holders[gram]) >= 2]

    def test_levels_equal_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            docs = [
                [f"w{v}" for v in rng.integers(0, int(rng.integers(1, 6)), size=rng.integers(0, 16))]
                for _ in range(int(rng.integers(1, 10)))
            ]
            levels, flat, doc, label = self._levels(docs)
            assert [n for n, *_ in levels] == list(range(1, len(levels) + 1))
            for n, pos, doc_n, cls, n_classes in levels:
                shared = self._shared_windows(flat, doc, n)
                assert pos == [p for p, _ in shared]
                assert doc_n == [doc[p] for p in pos]
                assert max(cls) < n_classes
                # classes are equal exactly when n-grams are, and run in the
                # lexicographic order of the level-1 classes
                spelled = [tuple(label[t] for t in gram) for _, gram in shared]
                assert len(set(zip(cls, spelled))) == len(set(cls)) == len(set(spelled))
                assert [c for _, c in sorted(zip(spelled, cls))] == sorted(cls)
            # the scan stops at the first length with no shared window
            assert not self._shared_windows(flat, doc, len(levels) + 1)

    def test_paired_scan_builds_no_level_past_the_longest_n(self, monkeypatch):
        records = tuple(
            make_record(f"s{i}", list("abcdef"), input_tokens=list("xabcdefy")) for i in range(3)
        )
        corpus = Corpus(records=records, name="paired")
        calls = []

        def counted_rank(key):
            calls.append(key.size)
            return rank(key)

        rank = ngrams._rank
        monkeypatch.setattr(ngrams, "_rank", counted_rank)
        for ns, ranks in (((1,), 1), ((1, 2), 2), ((3, 1), 3)):
            calls.clear()
            assert all(row.percent_novel == 0.0 for row in abstractiveness_rows(corpus, ns))
            # one rank names the level-1 classes, and one each longer level
            assert len(calls) == ranks
