"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
print. Everything is seeded, so outcomes are reproducible.
"""

import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repscope.corpus import load_corpus
from repscope.metrics import (
    abstractiveness_rows,
    dataset_repetition_score,
    summary_repetition_score,
)
from repscope.ngrams import build_repetition_index
from repscope.regression import (
    DesignMatrix,
    RegressionSpec,
    build_design_matrix,
    likelihood_ratio_test,
    ols_fit,
)
from repscope.special import chi2_sf, t_two_sided_p

from conftest import (
    BART_IN_DOMAIN_LINES,
    BART_SHIFTED_LINES,
    HUMAN_LINES,
    child_env,
    write_jsonl,
)
from oracles import (
    chi2_sf_quad,
    eq1_oracle,
    formulaic_corpus,
    make_record,
    normal_equations_fit,
    pairwise_index_oracle,
    random_corpus,
    t_two_sided_quad,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def indexed_random_corpora():
    """100 seeded random corpora with production index and pairwise oracle."""
    rng = np.random.default_rng(20260809)
    suite = []
    start = time.perf_counter()
    for _ in range(100):
        corpus = random_corpus(rng, max_summaries=200, max_len=30, vocab_lo=10, vocab_hi=50)
        index = build_repetition_index(corpus)
        oracle_entries, oracle_max = pairwise_index_oracle(corpus)
        suite.append((corpus, index, oracle_entries, oracle_max))
    elapsed = time.perf_counter() - start
    return suite, elapsed


def test_index_matches_pairwise_oracle(indexed_random_corpora):
    suite, elapsed = indexed_random_corpora
    mismatches = 0
    for _, index, oracle_entries, oracle_max in suite:
        got = {gram: set(ids) for gram, ids in index.entries.items()}
        if got != oracle_entries or index.max_observed_n != oracle_max:
            mismatches += 1
    report(
        "index oracle equivalence (100 corpora)",
        mismatches == 0 and elapsed < 60.0,
        f"mismatching corpora: {mismatches}, elapsed {elapsed:.1f}s",
    )


def test_summary_scores_match_direct_oracle(indexed_random_corpora):
    suite, _ = indexed_random_corpora
    worst = 0.0
    exact_fields_ok = True
    for corpus, index, oracle_entries, _ in suite:
        for record in corpus.records:
            got = summary_repetition_score(record, index)
            m, raw, score = eq1_oracle(record, oracle_entries)
            exact_fields_ok &= (got.m, got.raw_sum) == (m, raw)
            worst = max(worst, abs(got.score - score))
    report(
        "per-summary score oracle equivalence",
        exact_fields_ok and worst <= 1e-12,
        f"max |score diff| = {worst:.2e}",
    )


def test_maximal_only_scores_match_direct_oracle(indexed_random_corpora):
    suite, _ = indexed_random_corpora
    worst = 0.0
    exact_fields_ok = True
    for corpus, index, oracle_entries, _ in suite:
        for record in corpus.records:
            got = summary_repetition_score(record, index, mode="maximal_only")
            m, raw, score = eq1_oracle(record, oracle_entries, maximal_only=True)
            exact_fields_ok &= (got.m, got.raw_sum) == (m, raw)
            worst = max(worst, abs(got.score - score))
    report(
        "maximal-only per-summary score oracle equivalence",
        exact_fields_ok and worst <= 1e-12,
        f"max |score diff| = {worst:.2e}",
    )


def test_dense_repeat_corpora_match_oracles():
    """Tiny vocabularies, so nearly every short window repeats and every
    index level is crowded; both Eq.1 modes, the dataset score, and min_n
    from 1 to 5, so the levels that are tallied start at every depth."""
    rng = np.random.default_rng(20261018)
    mismatches = 0
    worst = 0.0
    for i in range(150):
        min_n = (1, 2, 3, 4, 5)[i % 5]
        corpus = random_corpus(rng, max_summaries=30, max_len=40, vocab_lo=2, vocab_hi=8)
        index = build_repetition_index(corpus, min_n)
        oracle_entries, oracle_max = pairwise_index_oracle(corpus, min_n)
        got = {gram: set(ids) for gram, ids in index.entries.items()}
        mismatches += got != oracle_entries or index.max_observed_n != oracle_max
        repeating = set().union(*oracle_entries.values())
        dataset = dataset_repetition_score(corpus, index)
        mismatches += dataset.repeating_summaries != len(repeating)
        for record in corpus.records:
            for maximal_only, mode in ((False, "all_ngrams"), (True, "maximal_only")):
                score = summary_repetition_score(record, index, mode=mode)
                m, raw, expected = eq1_oracle(
                    record, oracle_entries, min_n, maximal_only=maximal_only
                )
                mismatches += (score.m, score.raw_sum) != (m, raw)
                worst = max(worst, abs(score.score - expected))
    report(
        "dense-repeat corpora: index, both Eq.1 modes and dataset score match the oracles",
        mismatches == 0 and worst <= 1e-12,
        f"mismatches: {mismatches}, max |score diff| = {worst:.2e}",
    )


def test_dataset_score_four_gram_equivalence(indexed_random_corpora):
    suite, _ = indexed_random_corpora
    ok = True
    for corpus, index, _, _ in suite:
        full = dataset_repetition_score(corpus, index)
        via_four: set[str] = set()
        for gram, ids in index.entries.items():
            if len(gram) == index.min_n:
                via_four.update(ids)
        four_score = len(via_four) / len(corpus.records)
        ok &= full.repeating_summaries == len(via_four) and full.score == four_score
    report("dataset score four-gram equivalence", ok)


def test_downward_closure_on_every_entry(indexed_random_corpora):
    suite, _ = indexed_random_corpora
    violations = 0
    checked = 0
    for _, index, _, _ in suite:
        for gram, ids in index.entries.items():
            if len(gram) == index.min_n:
                continue
            checked += 1
            for sub in (gram[:-1], gram[1:]):
                if sub not in index.entries or not index.entries[sub] >= ids:
                    violations += 1
    report(
        "downward closure",
        violations == 0,
        f"{checked} longer n-grams checked, {violations} violations",
    )


def test_ols_noiseless_recovery_and_oracle_agreement():
    rng = np.random.default_rng(101)
    worst_recovery = 0.0
    for _ in range(5):
        X = np.column_stack([np.ones(400), rng.standard_normal((400, 9))])
        beta = rng.uniform(-5.0, 5.0, size=10)
        names = tuple(f"c{j}" for j in range(10))
        fit = ols_fit(DesignMatrix(matrix=X, column_names=names, response=X @ beta))
        worst_recovery = max(worst_recovery, float(np.max(np.abs(fit.coefficients - beta))))

    worst_oracle = 0.0
    worst_cosine = 0.0
    for _ in range(5):
        X = np.column_stack([np.ones(500), rng.standard_normal((500, 29))])
        y = rng.standard_normal(500)
        names = tuple(f"c{j}" for j in range(30))
        fit = ols_fit(DesignMatrix(matrix=X, column_names=names, response=y))
        coef, se, rss = normal_equations_fit(X, y)
        worst_oracle = max(
            worst_oracle,
            float(np.max(np.abs(fit.coefficients - coef))),
            float(np.max(np.abs(fit.standard_errors - se))),
        )
        residuals = y - X @ fit.coefficients
        norm_r = np.linalg.norm(residuals)
        for j in range(X.shape[1]):
            col = X[:, j]
            worst_cosine = max(
                worst_cosine, abs(col @ residuals) / (np.linalg.norm(col) * norm_r)
            )
    report(
        "OLS correctness",
        worst_recovery <= 1e-8 and worst_oracle <= 1e-8 and worst_cosine <= 1e-6,
        f"recovery {worst_recovery:.2e}, oracle gap {worst_oracle:.2e}, "
        f"orthogonality {worst_cosine:.2e}",
    )


def test_tail_probabilities_match_integration_oracles():
    t_grid = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0)
    df_grid = (1, 2, 5, 10, 100, 100000)
    worst_t = 0.0
    for df in df_grid:
        for t in t_grid:
            worst_t = max(worst_t, abs(t_two_sided_p(t, df) - t_two_sided_quad(t, df)))
    worst_chi2 = 0.0
    for df in df_grid:
        for mult in (0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
            x = mult * df
            worst_chi2 = max(worst_chi2, abs(chi2_sf(x, df) - chi2_sf_quad(x, df)))
    report(
        "inference tails vs quadrature oracles",
        worst_t <= 1e-8 and worst_chi2 <= 1e-8,
        f"max t gap {worst_t:.2e}, max chi2 gap {worst_chi2:.2e}",
    )


def test_null_simulation_rejection_rate():
    rng = np.random.default_rng(211)
    X = np.column_stack([np.ones(120), rng.standard_normal((120, 5))])
    names = tuple(f"c{j}" for j in range(6))
    rejections = 0
    n_sims = 1000
    for _ in range(n_sims):
        y = rng.standard_normal(120)
        fit = ols_fit(DesignMatrix(matrix=X, column_names=names, response=y))
        if fit.p_values[1] < 0.05:
            rejections += 1
    rate = rejections / n_sims
    band = 3.0 * math.sqrt(0.05 * 0.95 / n_sims)
    report(
        "null simulation calibration at alpha=0.05",
        abs(rate - 0.05) <= band,
        f"rate {rate:.4f}, allowed 0.05 +/- {band:.4f}",
    )


def _lr_simulation_designs(rng, n_rows):
    spec = RegressionSpec(reference_architecture="m0", reference_train="d0", reference_test="d0")
    records = []
    for i in range(n_rows):
        arch = ("m0", "m1")[int(rng.integers(2))]
        train = ("d0", "d1")[int(rng.integers(2))]
        test = ("d0", "d1")[int(rng.integers(2))]
        records.append(
            make_record(f"s{i}", ["w"] * int(rng.integers(5, 80)), architecture=arch,
                        train_dataset=train, test_dataset=test)
        )
    full = build_design_matrix(records, [0.0] * n_rows, spec)
    nested = build_design_matrix(
        records, [0.0] * n_rows,
        RegressionSpec(reference_architecture="m0", reference_train="d0", reference_test="d0",
                       include_interactions=False),
    )
    return full, nested


def test_lr_test_power_and_nonnegativity():
    rng = np.random.default_rng(307)
    full, nested = _lr_simulation_designs(rng, 5000)
    names = list(full.column_names)
    beta = np.zeros(len(names))
    beta[0] = 0.5
    beta[names.index("Summary length (z)")] = 0.2
    beta[names.index("m1")] = 0.3
    beta[names.index("Train d1")] = 0.1
    beta[names.index("Test d1")] = -0.2
    beta[names.index("d1 - d1")] = 1.0
    base = full.matrix @ beta

    rejects = 0
    all_nonnegative = True
    rss_monotone = True
    for _ in range(100):
        y = base + rng.standard_normal(5000)
        full_fit = ols_fit(DesignMatrix(full.matrix, full.column_names, y))
        nested_fit = ols_fit(DesignMatrix(nested.matrix, nested.column_names, y))
        result = likelihood_ratio_test(full_fit, nested_fit, critical_value=0.001)
        all_nonnegative &= result.statistic >= 0.0
        rss_monotone &= nested_fit.rss >= full_fit.rss * (1.0 - 1e-12)
        rejects += result.reject
    # null responses: the statistic must stay non-negative and the nested
    # model must never fit better than the full one
    for _ in range(50):
        y = rng.standard_normal(5000)
        full_fit = ols_fit(DesignMatrix(full.matrix, full.column_names, y))
        nested_fit = ols_fit(DesignMatrix(nested.matrix, nested.column_names, y))
        all_nonnegative &= likelihood_ratio_test(full_fit, nested_fit).statistic >= 0.0
        rss_monotone &= nested_fit.rss >= full_fit.rss * (1.0 - 1e-12)
    report(
        "LR test power at 0.001 with planted interaction",
        rejects >= 99 and all_nonnegative and rss_monotone,
        f"{rejects}/100 rejections, statistics non-negative: {all_nonnegative}, "
        f"rss nesting monotone: {rss_monotone}",
    )


def test_report_all_determinism_across_processes(tmp_path):
    paths = [
        write_jsonl(tmp_path / "humans.jsonl", HUMAN_LINES),
        write_jsonl(tmp_path / "bart_cnn.jsonl", BART_IN_DOMAIN_LINES),
        write_jsonl(tmp_path / "bart_xsum.jsonl", BART_SHIFTED_LINES),
    ]
    out = tmp_path / "reports"
    command = [
        sys.executable, "-m", "repscope.cli", "report-all",
        *[p.name for p in paths], "--output-dir", "reports",
    ]
    env = child_env()
    snapshots = []
    for _ in range(2):
        proc = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    identical = snapshots[0] == snapshots[1]
    report(
        "report-all determinism across processes",
        identical and len(snapshots[0]) > 10,
        f"{len(snapshots[0])} files compared",
    )


def test_performance_100k_summaries():
    corpus = formulaic_corpus(100_000, 60, seed=409)
    start = time.perf_counter()
    index = build_repetition_index(corpus)
    scores = [summary_repetition_score(rec, index) for rec in corpus.records]
    dataset = dataset_repetition_score(corpus, index)
    elapsed = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 * 1024)
    sane = 0.0 < dataset.score <= 1.0 and len(scores) == 100_000 and len(index.entries) > 0
    report(
        "performance: 100k summaries indexed and scored",
        sane and elapsed < 300.0 and peak_gb < 8.0,
        f"elapsed {elapsed:.1f}s, peak RSS {peak_gb:.2f} GB, "
        f"{len(index.entries)} entries, max n {index.max_observed_n}, score {dataset.score:.5f}",
    )


DATA_DIR_ENV = "REPSCOPE_DATA_DIR"

HUMAN_REFERENCE_SCORES = {
    "cnn_dailymail": 0.69,
    "xsum": 0.60,
    "reddit": 0.27,
    "scientific_papers": 0.99,
    "rct": 0.88,
}

HUMAN_ABSTRACTIVENESS = {
    "cnn_dailymail": {1: 30.20, 2: 54.40, 3: 71.53, 4: 79.99},
    "xsum": {1: 40.40, 2: 81.47, 3: 91.47, 4: 93.64},
    "reddit": {1: 9.50, 2: 2.71, 3: 2.53, 4: 2.77},
    "scientific_papers": {1: 48.41, 2: 49.99, 3: 70.08, 4: 81.48},
    "rct": {1: 52.56, 2: 77.87, 3: 92.02, 4: 96.08},
}


@pytest.mark.skipif(
    not os.environ.get(DATA_DIR_ENV),
    reason=f"{DATA_DIR_ENV} not set; user-supplied human reference corpora required",
)
def test_reproduces_published_human_reference_values():
    """Optional, data-dependent: point REPSCOPE_DATA_DIR at a directory of
    human-reference corpora named <dataset>.jsonl (cnn_dailymail, xsum,
    reddit, scientific_papers, rct) with paired inputs."""
    data_dir = Path(os.environ[DATA_DIR_ENV])
    failures = []
    checked = 0
    for name, expected_score in HUMAN_REFERENCE_SCORES.items():
        path = data_dir / f"{name}.jsonl"
        if not path.exists():
            continue
        corpus = load_corpus(path)
        index = build_repetition_index(corpus)
        got = dataset_repetition_score(corpus, index).score
        checked += 1
        if abs(got - expected_score) > 0.03:
            failures.append(f"{name}: repetition {got:.3f} vs {expected_score:.2f}")
        if all(rec.input is not None for rec in corpus.records):
            for n, expected_pct in HUMAN_ABSTRACTIVENESS[name].items():
                got_pct = abstractiveness_rows(corpus, (n,))[0].percent_novel
                if abs(got_pct - expected_pct) > 2.0:
                    failures.append(
                        f"{name}: abstractiveness n={n} {got_pct:.2f} vs {expected_pct:.2f}"
                    )
    if checked == 0:
        pytest.skip(f"no recognized corpus files in {data_dir}")
    report(
        "published human reference values",
        not failures,
        "; ".join(failures) if failures else f"{checked} datasets checked",
    )
