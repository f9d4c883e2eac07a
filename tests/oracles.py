"""Independent oracles used to verify the production implementations.

These deliberately take different routes: the tokenizer oracle classes
every character it reads with unicodedata and keeps no cache, the index
oracle compares every pair of summaries directly, the regression oracle
solves the normal equations (``scipy_factor`` instead pins the fit's bits to
scipy.linalg's own QR), and the tail-probability oracles integrate densities
with adaptive quadrature.
"""

from __future__ import annotations

import math
import unicodedata
from array import array

import numpy as np
from scipy.integrate import quad

from repscope.corpus import Corpus, SummaryRecord, TokenSequence, Vocabulary

# the vocabulary of the records make_record builds without one, so that any
# of them can form a corpus together
SHARED_VOCAB = Vocabulary()


def token_sequence(tokens, vocab: Vocabulary) -> TokenSequence:
    """The given tokens, numbered in vocab."""
    return TokenSequence(array("i", map(vocab.__getitem__, tokens)), vocab)


def make_record(
    rid: str,
    tokens,
    *,
    architecture: str = "Human",
    test_dataset: str = "d",
    train_dataset: str | None = None,
    input_tokens=None,
    vocab: Vocabulary = SHARED_VOCAB,
) -> SummaryRecord:
    tokens = tuple(tokens)
    return SummaryRecord(
        id=rid,
        text=" ".join(tokens),
        summary=token_sequence(tokens, vocab),
        architecture=architecture,
        test_dataset=test_dataset,
        train_dataset=train_dataset,
        input=None if input_tokens is None else token_sequence(input_tokens, vocab),
    )


def corpus_from_token_lists(token_lists, name="synthetic") -> Corpus:
    """token_lists: sequence of (id, tokens) or plain token sequences."""
    records = []
    vocab = Vocabulary()
    for i, item in enumerate(token_lists):
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str):
            rid, tokens = item
        else:
            rid, tokens = f"s{i}", item
        records.append(make_record(rid, tokens, vocab=vocab))
    return Corpus(records=tuple(records), name=name)


def formulaic_corpus(n_summaries: int, mean_len: int, seed: int) -> Corpus:
    """Synthetic corpus with a pool of stock phrases so that repeats are
    plentiful and chain up to realistic lengths. The draws stay ids: filler
    token t{i} is id i, phrase token p{i} is id 30000 + i."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    for token in [f"t{i}" for i in range(30000)] + [f"p{i}" for i in range(800)]:
        vocab[token]  # numbers it
    phrases = [30000 + rng.integers(0, 800, size=rng.integers(5, 11)) for _ in range(500)]
    lengths = np.maximum(8, rng.poisson(mean_len, size=n_summaries))
    has_phrase = rng.random(n_summaries) < 0.8
    phrase_pick = rng.integers(0, len(phrases), size=n_summaries)
    flat = rng.integers(0, 30000, size=int(lengths.sum())).astype(np.int32)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    records = []
    for i in range(n_summaries):
        ids = flat[offsets[i] : offsets[i + 1]]
        if has_phrase[i]:
            phrase = phrases[phrase_pick[i]]
            pos = int(rng.integers(0, ids.size - phrase.size + 1))
            ids[pos : pos + phrase.size] = phrase
        summary = TokenSequence(array("i", ids.tobytes()), vocab)
        records.append(
            SummaryRecord(id=f"s{i}", text=" ".join(summary.tokens), summary=summary,
                          architecture="BART", train_dataset="d0", test_dataset="d0")
        )
    return Corpus(records=tuple(records), name="formulaic")


def random_corpus(rng, *, max_summaries=200, max_len=30, vocab_lo=10, vocab_hi=50, name="rand"):
    n_summaries = int(rng.integers(2, max_summaries + 1))
    vocab_size = int(rng.integers(vocab_lo, vocab_hi + 1))
    records = []
    vocab = Vocabulary()  # numbered in first-seen order over this corpus
    for i in range(n_summaries):
        length = int(rng.integers(0, max_len + 1))
        tokens = tuple(f"w{v}" for v in rng.integers(0, vocab_size, size=length))
        records.append(make_record(f"s{i}", tokens, vocab=vocab))
    return Corpus(records=tuple(records), name=name)


def _split_unit_oracle(unit: str) -> list[str]:
    """A unit's leading punctuation characters, its core, and its trailing
    ones, asking unicodedata for the category of each character in turn."""

    def is_punctuation(ch: str) -> bool:
        return unicodedata.category(ch).startswith("P")

    start, end = 0, len(unit)
    while start < end and is_punctuation(unit[start]):
        start += 1
    while end > start and is_punctuation(unit[end - 1]):
        end -= 1
    parts = list(unit[:start])
    if start < end:
        parts.append(unit[start:end])
    parts.extend(unit[end:])
    return parts


def tokenize_oracle(text: str, case_fold: bool, punctuation_mode: str) -> tuple[str, ...]:
    """The tokens of text, character by character and with no cache: fold
    case, split on whitespace, and in "split" mode peel each Unicode P*
    character off either end of a unit into a token of its own."""
    if case_fold:
        text = text.lower()
    tokens: list[str] = []
    for unit in text.split():
        tokens += _split_unit_oracle(unit) if punctuation_mode == "split" else [unit]
    return tuple(tokens)


def _window_set(tokens, n):
    return frozenset(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def pairwise_index_oracle(corpus: Corpus, min_n: int = 4):
    """All-pairs repeating n-gram map: ngram -> set of containing ids.

    For each pair, n grows from min_n while the pair still shares an
    n-gram; a shared (n+1)-gram always implies a shared n-gram (its own
    sub-windows), so stopping at the first empty level loses nothing.
    Worst case O(S^2 * L^2) set work.
    """
    items = [(rec.id, rec.summary.tokens) for rec in corpus.records]
    cache: dict[tuple[str, int], frozenset] = {}

    def windows(rid, tokens, n):
        key = (rid, n)
        got = cache.get(key)
        if got is None:
            got = _window_set(tokens, n)
            cache[key] = got
        return got

    entries: dict[tuple, set[str]] = {}
    for i in range(len(items)):
        id_i, toks_i = items[i]
        for j in range(i + 1, len(items)):
            id_j, toks_j = items[j]
            n = min_n
            while True:
                common = windows(id_i, toks_i, n) & windows(id_j, toks_j, n)
                if not common:
                    break
                for gram in common:
                    entries.setdefault(gram, set()).update((id_i, id_j))
                n += 1
    max_n = max((len(g) for g in entries), default=0)
    return entries, max_n


def eq1_oracle(
    record: SummaryRecord, oracle_entries: dict, min_n: int = 4, *, maximal_only: bool = False
):
    """Direct evaluation of the per-summary score from the oracle map.

    With maximal_only, a found type is dropped when it occurs as a
    contiguous substring of a longer found type of the same summary,
    checked as containment between the spans the types occupy.
    """
    tokens = record.summary.tokens
    longest = max(map(len, oracle_entries), default=0)  # no longer window can be found
    spans = [
        (i, i + n)
        for n in range(min_n, min(len(tokens), longest) + 1)
        for i in range(len(tokens) - n + 1)
        if tokens[i : i + n] in oracle_entries
    ]
    types = {tokens[i:j] for i, j in spans}
    if maximal_only:
        # end of the longest found span at each start; a span [i, j) lies
        # inside a longer found span exactly when some start a <= i reaches
        # j with a longer span
        reach: dict[int, int] = {}
        for i, j in spans:
            reach[i] = max(reach.get(i, 0), j)
        types -= {
            tokens[i:j]
            for i, j in spans
            if any(reach.get(a, 0) >= j and reach[a] - a > j - i for a in range(i + 1))
        }
    raw = sum(len(oracle_entries[g]) for g in types)
    return len(types), raw, math.log(raw + 1)


def abstractiveness_oracle(corpus: Corpus, n: int) -> float:
    """Percent of novel summary n-grams, comparing each summary window with
    every input window in turn; same arithmetic as the production code."""
    novel_instances = 0
    total_instances = 0
    for rec in corpus.records:
        summary, source = rec.summary.tokens, rec.input.tokens
        windows = [summary[i : i + n] for i in range(len(summary) - n + 1)]
        if not windows:
            continue
        input_windows = [source[j : j + n] for j in range(len(source) - n + 1)]
        novel = 0
        for gram in windows:
            if not any(gram == other for other in input_windows):
                novel += 1
        novel_instances += novel
        total_instances += len(windows)
    return 100.0 * novel_instances / total_instances if total_instances else 0.0


def normal_equations_fit(X: np.ndarray, y: np.ndarray):
    """OLS by explicitly solving X'X b = X'y; returns (coef, se, rss)."""
    xtx = X.T @ X
    coef = np.linalg.solve(xtx, X.T @ y)
    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    n, p = X.shape
    sigma2 = rss / (n - p)
    se = np.sqrt(np.diag(np.linalg.inv(xtx)) * sigma2)
    return coef, se, rss


def scipy_factor(X: np.ndarray, y: np.ndarray):
    """``regression._factor`` through scipy.linalg's public routines: the
    pivoted QR and triangular solves whose LAPACK calls it repeats."""
    import scipy.linalg

    n, p = X.shape
    q, r, pivot = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = (diag[0] if diag.size else 0.0) * max(n, p) * np.finfo(float).eps
    rank = int(np.count_nonzero(diag > tol))
    if rank < p:
        return rank, pivot, None, None
    r_inv = scipy.linalg.solve_triangular(r, np.eye(p))
    coef = np.empty(p)
    coef[pivot] = scipy.linalg.solve_triangular(r, q.T @ y)
    unit_var = np.empty(p)
    unit_var[pivot] = np.sum(r_inv * r_inv, axis=1)
    return rank, pivot, coef, unit_var


def t_two_sided_quad(t: float, df: float) -> float:
    """Two-sided t tail via adaptive integration of the density."""
    ln_norm = math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)

    def pdf(u):
        return math.exp(ln_norm - 0.5 * (df + 1.0) * math.log1p(u * u / df))

    value, _ = quad(pdf, t, np.inf, epsabs=1e-14, epsrel=1e-12, limit=800)
    return 2.0 * value


def chi2_sf_quad(x: float, df: float) -> float:
    """Chi-square upper tail via adaptive integration of the density."""
    a = df / 2.0
    ln_norm = -a * math.log(2.0) - math.lgamma(a)

    def pdf(u):
        if u <= 0.0:
            return 0.0
        return math.exp(ln_norm + (a - 1.0) * math.log(u) - 0.5 * u)

    if x == 0.0:
        return 1.0
    # integrate on the side whose mass sits next to the fixed limit
    if x < df:
        value, _ = quad(pdf, 0.0, x, epsabs=1e-14, epsrel=1e-12, limit=800)
        return 1.0 - value
    value, _ = quad(pdf, x, np.inf, epsabs=1e-14, epsrel=1e-12, limit=800)
    return value
