import json
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repscope.corpus
from repscope.corpus import (
    Corpus,
    SummaryRecord,
    TokenizerConfig,
    TokenSequence,
    Vocabulary,
    load_corpus,
    tokenize,
)
from repscope.errors import CorpusLoadError, InputError

from conftest import UNREADABLE_CORPORA, write_jsonl
from oracles import tokenize_oracle

# Units that decide the tokenizer's output: ASCII and Unicode P* punctuation
# at unit edges, interior punctuation, and letters whose case mapping changes
# length ("İ".lower() is two characters; "ß".upper() is "SS"). Cores that
# differ only in case or edge punctuation make distinct units that a memo
# keyed on anything but the exact unit would confuse.
_EDGES = "'.,(”«»—…¿"
_CORES = ("a", "A", "ß", "ẞ", "SS", "İ", "i\u0307", "don't", "u.s", "x²", "€5")
_UNITS = st.one_of(
    st.builds(
        lambda head, core, tail: head + core + tail,
        st.text(_EDGES, max_size=2), st.sampled_from(_CORES), st.text(_EDGES, max_size=2),
    ),
    st.text(_EDGES + "aBİß", min_size=1, max_size=4),
)
# Separators, ASCII and not, all of which str.split() splits on.
_SPACES = (" ", "  ", "\n", "\t", "\u00a0", "\u2003", "\x1c")
# Characters for texts drawn one character at a time: P* punctuation, S*
# and No symbols that are not punctuation, separators that str.split()
# splits on, and letters whose case mapping changes length or context
# ("Σ" lowers to "σ" or, ending a word, "ς").
_ALPHABET = "ab'.,(”«»—…¿€½²$+^İßΣ" + " \t\n\x1c\x85\u00a0\u2003\u3000"


@st.composite
def _corpus_texts(draw):
    """(summary, input or None) pairs drawn from one small pool of units,
    so units recur across records and within them. The pool holds each
    unit's case-swapped and edge-stripped variants too."""
    units = draw(st.lists(_UNITS, min_size=1, max_size=5))
    pool = units + [u.swapcase() for u in units] + [u.strip(_EDGES) or u for u in units]
    text = st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(_SPACES)), max_size=12
    ).map(lambda pairs: "".join(unit + space for unit, space in pairs))
    return draw(st.lists(st.tuples(text, st.none() | text), min_size=1, max_size=6))


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("").tokens == ()

    def test_case_fold_and_punctuation_split(self):
        seq = tokenize("However, there is", TokenizerConfig(case_fold=True, punctuation_mode="split"))
        assert list(seq.tokens) == ["however", ",", "there", "is"]

    def test_whitespace_collapse(self):
        assert list(tokenize("a b  c").tokens) == ["a", "b", "c"]

    def test_no_case_fold(self):
        seq = tokenize("However, There", TokenizerConfig(case_fold=False))
        assert list(seq.tokens) == ["However", ",", "There"]

    def test_attached_mode(self):
        seq = tokenize("However, there", TokenizerConfig(punctuation_mode="attached"))
        assert list(seq.tokens) == ["however,", "there"]

    def test_leading_and_trailing_punctuation(self):
        assert list(tokenize('("hello"),').tokens) == ["(", '"', "hello", '"', ")", ","]

    def test_interior_punctuation_stays(self):
        assert list(tokenize("don't stop-go u.s.").tokens) == ["don't", "stop-go", "u.s", "."]

    def test_all_punctuation_token(self):
        assert list(tokenize("...").tokens) == [".", ".", "."]

    def test_bad_punctuation_mode(self):
        with pytest.raises(ValueError):
            TokenizerConfig(punctuation_mode="sideways")

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_deterministic_and_no_empty_tokens(self, raw):
        config = TokenizerConfig()
        first = tokenize(raw, config)
        second = tokenize(raw, config)
        assert first == second
        assert all(tok for tok in first.tokens)

    @settings(max_examples=200)
    @given(st.lists(st.text(_ALPHABET, max_size=40), min_size=1, max_size=4))
    def test_tokens_equal_reference_oracle(self, texts):
        # every text under all four configs, numbered in one vocabulary
        vocab = Vocabulary()
        numbered: dict[str, set[int]] = {}
        for text in texts:
            for case_fold in (True, False):
                for punctuation_mode in ("split", "attached"):
                    config = TokenizerConfig(case_fold=case_fold, punctuation_mode=punctuation_mode)
                    seq = tokenize(text, config, vocab=vocab)
                    assert seq.tokens == tokenize_oracle(text, case_fold, punctuation_mode)
                    for token, token_id in zip(seq.tokens, seq.ids):
                        numbered.setdefault(token, set()).add(token_id)
        # equal tokens get equal ids, and distinct tokens distinct ids
        assert all(len(ids) == 1 for ids in numbered.values())
        assert len(set().union(*numbered.values())) == len(numbered) == len(vocab)

    @settings(max_examples=100)
    @given(st.text(max_size=80))
    def test_retokenizing_joined_tokens_is_stable(self, raw):
        config = TokenizerConfig()
        once = tokenize(raw, config).tokens
        again = tokenize(" ".join(once), config).tokens
        assert once == again


class TestRecordInvariants:
    def test_length_tokens_matches_summary(self):
        rec = SummaryRecord(
            id="r1",
            text="one two three",
            summary=tokenize("one two three"),
            architecture="BART",
            test_dataset="d",
        )
        assert rec.length_tokens == 3

    def test_human_cannot_have_train_dataset(self):
        with pytest.raises(ValueError, match="Human"):
            SummaryRecord(
                id="r1",
                text="text",
                summary=tokenize("text"),
                architecture="Human",
                test_dataset="d",
                train_dataset="d",
            )

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            SummaryRecord(id="", text="x", summary=tokenize("x"), architecture="A",
                          test_dataset="d")

    def test_duplicate_ids_rejected_by_corpus(self):
        rec = SummaryRecord(id="dup", text="x", summary=tokenize("x"), architecture="A",
                            test_dataset="d")
        with pytest.raises(InputError, match="dup"):
            Corpus(records=(rec, rec), name="c")

    def test_records_of_two_vocabularies_rejected_by_corpus(self):
        # "x" and "y" both take id 0 in vocabularies of their own
        first = SummaryRecord(id="r1", text="x", summary=tokenize("x"), architecture="A",
                              test_dataset="d")
        vocab = first.summary.vocab
        own = SummaryRecord(id="r2", text="y", summary=tokenize("y"), architecture="A",
                            test_dataset="d")
        paired = replace(own, summary=tokenize("y", vocab=vocab), input=tokenize("z"))
        for rec in (own, paired):
            assert list(rec.input.ids if rec.input else rec.summary.ids) == list(first.summary.ids)
            with pytest.raises(InputError, match="'r2' holds ids of another vocabulary"):
                Corpus(records=(first, rec), name="c")
        shared = replace(paired, input=tokenize("z", vocab=vocab))
        assert Corpus(records=(first, shared), name="c").vocab is vocab
        assert list(shared.input.ids) == [2]


class TestLoadCorpus:
    def _lines(self):
        return [
            {"id": "s1", "summary": "alpha beta gamma", "architecture": "BART",
             "train_dataset": "x", "test_dataset": "y"},
            {"id": "s2", "summary": "delta epsilon", "architecture": "T5",
             "train_dataset": "x", "test_dataset": "y"},
            {"id": "s3", "summary": "zeta", "architecture": "Human", "test_dataset": "y"},
        ]

    def test_loads_records_in_file_order(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", self._lines())
        corpus = load_corpus(path)
        assert [r.id for r in corpus.records] == ["s1", "s2", "s3"]
        assert corpus.name == "c"
        assert corpus.records[0].length_tokens == 3

    def test_equal_labels_are_one_string(self, tmp_path):
        # labels repeat across records; json gives each line strings of its own
        lines = [{"id": f"s{i}", "summary": "a b", "architecture": "BART",
                  "train_dataset": "CNN/DailyMail", "test_dataset": "XSum"} for i in (1, 2)]
        lines.append({"id": "s3", "summary": "c", "architecture": "Human",
                      "test_dataset": "XSum"})
        s1, s2, s3 = load_corpus(write_jsonl(tmp_path / "c.jsonl", lines)).records
        assert s1.architecture is s2.architecture
        assert s1.train_dataset is s2.train_dataset and s3.train_dataset is None
        assert s1.test_dataset is s2.test_dataset is s3.test_dataset

    def test_duplicate_id_error_names_id_and_lines(self, tmp_path):
        lines = self._lines()
        lines.append(dict(lines[0]))
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        with pytest.raises(CorpusLoadError, match=r"c\.jsonl:4: duplicate id 's1'"):
            load_corpus(path)

    def test_missing_required_field_reports_line(self, tmp_path):
        lines = self._lines()
        del lines[1]["summary"]
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        with pytest.raises(CorpusLoadError, match=r"c\.jsonl:2: missing required field 'summary'"):
            load_corpus(path)

    def test_null_or_non_string_fields_rejected(self, tmp_path):
        lines = self._lines()
        lines[0]["summary"] = None
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        with pytest.raises(CorpusLoadError, match=r"c\.jsonl:1: field 'summary' must be a string"):
            load_corpus(path)
        lines = self._lines()
        lines[1]["id"] = 42
        path = write_jsonl(tmp_path / "d.jsonl", lines)
        with pytest.raises(CorpusLoadError, match=r"d\.jsonl:2: field 'id' must be a string"):
            load_corpus(path)
        lines = self._lines()
        lines[2]["input"] = ["not", "a", "string"]
        path = write_jsonl(tmp_path / "e.jsonl", lines)
        with pytest.raises(CorpusLoadError, match=r"e\.jsonl:3: field 'input'"):
            load_corpus(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "s1", "summary": "ok", "architecture": "A", "test_dataset": "d"}\n{oops\n')
        with pytest.raises(CorpusLoadError, match=r"c\.jsonl:2: invalid JSON"):
            load_corpus(path)

    @pytest.mark.parametrize("case", sorted(UNREADABLE_CORPORA))
    def test_unreadable_line_reports_line(self, tmp_path, case):
        content, lineno, message = UNREADABLE_CORPORA[case]
        path = tmp_path / "c.jsonl"
        path.write_bytes(content)
        with pytest.raises(CorpusLoadError, match=rf"c\.jsonl:{lineno}: {message}"):
            load_corpus(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_carriage_return_inside_a_record_is_whitespace(self, tmp_path, newline):
        # JSON Lines ends a line at \n only, so a \r elsewhere is JSON whitespace
        plain = write_jsonl(tmp_path / "plain.jsonl", self._lines())
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_bytes(plain.read_bytes().replace(b", ", b",\r ").replace(b"\n", newline))
        assert b",\r " in spaced.read_bytes()

        def fields(path):
            return [(r.id, r.text, r.summary.tokens, r.architecture, r.train_dataset,
                     r.test_dataset) for r in load_corpus(path).records]

        assert fields(spaced) == fields(plain)

    def test_tokenizes_through_module_tokenize(self, tmp_path, monkeypatch):
        # a traced run wraps repscope.corpus.tokenize; load_corpus must call
        # that attribute once per text, or the span reads 0 calls
        lines = self._lines()
        lines[0]["input"] = "the source document"
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        texts = []

        def counting(raw_text, config=None, *, vocab=None):
            texts.append(raw_text)
            return tokenize(raw_text, config, vocab=vocab)

        monkeypatch.setattr(repscope.corpus, "tokenize", counting)
        load_corpus(path)
        assert sorted(texts) == sorted(
            [line["summary"] for line in lines] + ["the source document"]
        )

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(CorpusLoadError, match="expected a JSON object"):
            load_corpus(path)

    def test_blank_lines_skipped(self, tmp_path):
        # a line of JSON whitespace alone is blank
        path = tmp_path / "c.jsonl"
        body = "\n".join(json.dumps(obj) for obj in self._lines())
        path.write_bytes((body + "\n\n \t\r\n").encode())
        assert len(load_corpus(path)) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusLoadError):
            load_corpus(tmp_path / "absent.jsonl")

    def test_human_with_train_dataset_rejected_with_line(self, tmp_path):
        lines = self._lines()
        lines[2]["train_dataset"] = "x"
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        with pytest.raises(CorpusLoadError, match=r"c\.jsonl:3"):
            load_corpus(path)

    def test_token_count_aggregates(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", self._lines())
        corpus = load_corpus(path)
        total = sum(r.length_tokens for r in corpus.records)
        assert total == sum(len(r.summary.tokens) for r in corpus.records)

    @pytest.mark.parametrize("case_fold", [True, False])
    @pytest.mark.parametrize("punctuation_mode", ["split", "attached"])
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(texts=_corpus_texts())
    def test_load_matches_tokenize(self, tmp_path, case_fold, punctuation_mode, texts):
        # load_corpus shares one vocabulary and its unit memo across the whole
        # file; every text must still tokenize exactly as it does on its own
        # and as it does with no memo at all
        config = TokenizerConfig(case_fold=case_fold, punctuation_mode=punctuation_mode)
        mode = (case_fold, punctuation_mode)
        lines = []
        for i, (summary, source) in enumerate(texts):
            obj = {"id": f"s{i}", "summary": summary, "architecture": "A", "test_dataset": "d"}
            if source is not None:
                obj["input"] = source
            lines.append(obj)
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", lines), config)
        for rec, (summary, source) in zip(corpus.records, texts, strict=True):
            want = tokenize(summary, config).tokens
            assert rec.summary.tokens == want == tokenize_oracle(summary, *mode)
            assert rec.text == summary
            if source is None:
                assert rec.input is None
            else:
                want = tokenize(source, config).tokens
                assert rec.input.tokens == want == tokenize_oracle(source, *mode)
            for seq in (rec.summary, rec.input):
                if seq is not None:
                    # every text is numbered in the corpus's one vocabulary
                    assert seq.vocab is corpus.vocab
                    assert [corpus.vocab[tok] for tok in seq.tokens] == list(seq.ids)

    def test_input_keeps_only_its_tokens(self, tmp_path):
        # abstractiveness reads an input's tokens only: once loaded, the
        # corpus holds no copy of the input's text (here about 4.4 MB of one
        # unit, whose 4,000 tokens share one interned string)
        source = " ".join(["boilerplate" * 100] * 4000)
        lines = [{"id": "s1", "summary": "a b", "input": source,
                  "architecture": "A", "test_dataset": "d"}]
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        del source, lines
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus.records[0].input) == 4000
        assert held < 1_000_000

    def test_corpus_holds_under_7_bytes_per_token(self, tmp_path):
        # a corpus keeps one int32 id per token, in one array per text, and
        # one copy of each distinct token: about 5.9 bytes per token here,
        # its records, vocabulary and summary texts included. A tuple of
        # interned strings per text held 9.6, and a list of ints holds 10.4.
        rng = random.Random(0)
        words = [f"w{i}" for i in range(3000)]

        def units(count):
            return " ".join(rng.choice(words) + ("," if rng.random() < 0.25 else "")
                            for _ in range(count))

        lines = [{"id": f"s{i}", "summary": " ".join(rng.choices(words, k=20)),
                  "input": units(400), "architecture": "A", "test_dataset": "d"}
                 for i in range(2000)]
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        del lines
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tokens = sum(len(rec.summary) + len(rec.input) for rec in corpus.records)
        assert 1_030_000 < tokens < 1_050_000
        assert held / tokens < 7

    def test_empty_summary_allowed(self, tmp_path):
        lines = [{"id": "s1", "summary": "", "architecture": "A", "test_dataset": "d"}]
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        corpus = load_corpus(path)
        assert corpus.records[0].length_tokens == 0
