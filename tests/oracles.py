"""Independent oracles used to verify the production implementations.

These deliberately take different routes: the index oracle compares every
pair of summaries directly, the regression oracle solves the normal
equations, and the tail-probability oracles integrate densities with
adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from repscope.corpus import Corpus, SummaryRecord, TokenSequence


def make_record(
    rid: str,
    tokens,
    *,
    architecture: str = "Human",
    test_dataset: str = "d",
    train_dataset: str | None = None,
    input_tokens=None,
) -> SummaryRecord:
    tokens = tuple(tokens)
    return SummaryRecord(
        id=rid,
        text=" ".join(tokens),
        summary=TokenSequence(tokens=tokens),
        architecture=architecture,
        test_dataset=test_dataset,
        train_dataset=train_dataset,
        input=None if input_tokens is None else TokenSequence(tokens=tuple(input_tokens)),
    )


def corpus_from_token_lists(token_lists, name="synthetic") -> Corpus:
    """token_lists: sequence of (id, tokens) or plain token sequences."""
    records = []
    for i, item in enumerate(token_lists):
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str):
            rid, tokens = item
        else:
            rid, tokens = f"s{i}", item
        records.append(make_record(rid, tokens))
    return Corpus(records=tuple(records), name=name)


def random_corpus(rng, *, max_summaries=200, max_len=30, vocab_lo=10, vocab_hi=50, name="rand"):
    n_summaries = int(rng.integers(2, max_summaries + 1))
    vocab_size = int(rng.integers(vocab_lo, vocab_hi + 1))
    records = []
    for i in range(n_summaries):
        length = int(rng.integers(0, max_len + 1))
        tokens = tuple(f"w{v}" for v in rng.integers(0, vocab_size, size=length))
        records.append(make_record(f"s{i}", tokens))
    return Corpus(records=tuple(records), name=name)


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
