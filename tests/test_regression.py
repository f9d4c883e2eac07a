import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from repscope.config import AnalysisConfig
from repscope.corpus import load_corpus
from repscope.errors import DegenerateDesignError, RankDeficiencyError
from repscope.metrics import summary_repetition_score
from repscope.ngrams import build_repetition_index
from repscope.regression import (
    DesignMatrix,
    RegressionSpec,
    _factor,
    build_design_matrix,
    likelihood_ratio_test,
    ols_fit,
)

from oracles import make_record, normal_equations_fit, scipy_factor

SPEC = RegressionSpec()


def fixture_records():
    rows = [
        ("r1", "Human", None, "CNN/DailyMail", 10),
        ("r2", "BART", "XSum", "Reddit", 20),
        ("r3", "Pegasus", "CNN/DailyMail", "SP", 30),
        ("r4", "BART", "CNN/DailyMail", "CNN/DailyMail", 40),
        ("r5", "Pegasus", "XSum", "SP", 50),
        ("r6", "Human", None, "XSum", 60),
        ("r7", "BART", "XSum", "XSum", 70),
    ]
    return [
        make_record(rid, ["w"] * length, architecture=arch, train_dataset=train, test_dataset=test)
        for rid, arch, train, test, length in rows
    ]


class TestBuildDesignMatrix:
    def test_column_layout(self):
        design = build_design_matrix(fixture_records(), [0.0] * 7, SPEC)
        assert design.column_names == (
            "Intercept",
            "Summary length (z)",
            "BART",
            "Pegasus",
            "Train XSum",
            "Test Reddit",
            "Test SP",
            "Test XSum",
            "XSum - Reddit",
            "XSum - SP",
            "XSum - XSum",
        )

    def test_indicator_rows_match_hand_encoding(self):
        design = build_design_matrix(fixture_records(), [0.0] * 7, SPEC)
        expected = np.array(
            [
                # BART Peg TrXS TeRed TeSP TeXS X-Red X-SP X-XS
                [0, 0, 0, 0, 0, 0, 0, 0, 0],  # Human on the reference test set
                [1, 0, 1, 1, 0, 0, 1, 0, 0],  # BART, XSum -> Reddit
                [0, 1, 0, 0, 1, 0, 0, 0, 0],  # Pegasus, reference train -> SP
                [1, 0, 0, 0, 0, 0, 0, 0, 0],  # BART fully in reference datasets
                [0, 1, 1, 0, 1, 0, 0, 1, 0],  # Pegasus, XSum -> SP
                [0, 0, 0, 0, 0, 1, 0, 0, 0],  # Human on XSum
                [1, 0, 1, 0, 0, 1, 0, 0, 1],  # BART, XSum -> XSum
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(design.matrix[:, 2:], expected)
        assert np.all(design.matrix[:, 0] == 1.0)

    def test_z_column_standardized(self):
        design = build_design_matrix(fixture_records(), [0.0] * 7, SPEC)
        z = design.matrix[:, 1]
        assert abs(z.mean()) <= 1e-10
        assert abs(z.std() - 1.0) <= 1e-10

    def test_categorical_group_row_sums_at_most_one(self):
        design = build_design_matrix(fixture_records(), [0.0] * 7, SPEC)
        names = design.column_names
        arch = [j for j, n in enumerate(names) if n in ("BART", "Pegasus")]
        train = [j for j, n in enumerate(names) if n.startswith("Train ")]
        test = [j for j, n in enumerate(names) if n.startswith("Test ")]
        for group in (arch, train, test):
            assert np.all(design.matrix[:, group].sum(axis=1) <= 1.0)

    def test_interaction_is_product_of_indicators(self):
        design = build_design_matrix(fixture_records(), [0.0] * 7, SPEC)
        names = list(design.column_names)
        inter = design.matrix[:, names.index("XSum - Reddit")]
        prod = (
            design.matrix[:, names.index("Train XSum")]
            * design.matrix[:, names.index("Test Reddit")]
        )
        np.testing.assert_array_equal(inter, prod)

    def test_no_interactions_flag(self):
        spec = RegressionSpec(include_interactions=False)
        design = build_design_matrix(fixture_records(), [0.0] * 7, spec)
        assert not any("-" in name for name in design.column_names[2:])

    def test_response_alignment(self):
        scores = [float(i) for i in range(7)]
        design = build_design_matrix(fixture_records(), scores, SPEC)
        np.testing.assert_array_equal(design.response, np.array(scores))

    def test_missing_reference_architecture(self):
        records = [
            make_record("r1", ["w"] * 5, architecture="BART", train_dataset="CNN/DailyMail",
                        test_dataset="CNN/DailyMail"),
            make_record("r2", ["w"] * 9, architecture="BART", train_dataset="CNN/DailyMail",
                        test_dataset="CNN/DailyMail"),
        ]
        with pytest.raises(DegenerateDesignError, match="reference architecture"):
            build_design_matrix(records, [0.0, 0.0], SPEC)

    def test_missing_reference_test_dataset(self):
        records = [
            make_record("r1", ["w"] * 5, architecture="Human", test_dataset="XSum"),
            make_record("r2", ["w"] * 9, architecture="Human", test_dataset="XSum"),
        ]
        with pytest.raises(DegenerateDesignError, match="reference test"):
            build_design_matrix(records, [0.0, 0.0], SPEC)

    def test_colliding_column_names_rejected(self):
        # architecture "Train XSum" and train dataset "XSum" both name a column "Train XSum"
        records = [
            make_record("r1", ["w"] * 5, architecture="Human", test_dataset="CNN/DailyMail"),
            make_record("r2", ["w"] * 7, architecture="Train XSum",
                        train_dataset="CNN/DailyMail", test_dataset="CNN/DailyMail"),
            make_record("r3", ["w"] * 9, architecture="BART", train_dataset="XSum",
                        test_dataset="CNN/DailyMail"),
        ]
        with pytest.raises(DegenerateDesignError, match="'Train XSum'"):
            build_design_matrix(records, [0.0, 1.0, 2.0], SPEC)

    def test_constant_lengths_rejected(self):
        records = [
            make_record("r1", ["w"] * 5, architecture="Human", test_dataset="CNN/DailyMail"),
            make_record("r2", ["w"] * 5, architecture="BART", train_dataset="CNN/DailyMail",
                        test_dataset="CNN/DailyMail"),
        ]
        with pytest.raises(DegenerateDesignError, match="constant"):
            build_design_matrix(records, [0.0, 0.0], SPEC)

    def test_human_train_from_test_flag(self):
        spec = RegressionSpec(human_train_from_test=True)
        records = fixture_records()
        design = build_design_matrix(records, [0.0] * 7, spec)
        names = list(design.column_names)
        # r6 is Human on XSum: with the flag it picks up Train XSum and the
        # in-domain interaction
        r6 = design.matrix[5]
        assert r6[names.index("Train XSum")] == 1.0
        assert r6[names.index("XSum - XSum")] == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="scores"):
            build_design_matrix(fixture_records(), [0.0], SPEC)

    def test_no_records_rejected(self):
        with pytest.raises(DegenerateDesignError, match="^no records to regress on$"):
            build_design_matrix([], [])


class TestOlsFit:
    def test_exact_line(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 3.0, 5.0])
        fit = ols_fit(DesignMatrix(matrix=X, column_names=("Intercept", "x"), response=y))
        assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-20)
        assert (fit.n_rows, fit.n_params) == (3, 2)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(41)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 3))])
        y = rng.standard_normal(50)
        design = DesignMatrix(matrix=X, column_names=("c0", "c1", "c2", "c3"), response=y)
        fit = ols_fit(design)
        coef, se, rss = normal_equations_fit(X, y)
        assert fit.coefficients == pytest.approx(coef, abs=1e-8)
        assert fit.standard_errors == pytest.approx(se, abs=1e-8)
        assert fit.rss == pytest.approx(rss, rel=1e-10)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(43)
        X = np.column_stack([np.ones(300), rng.standard_normal((300, 7))])
        beta = np.array([0.5, -1.0, 2.0, 0.0, 3.5, -0.25, 1.0, 4.0])
        y = X @ beta
        names = tuple(f"c{j}" for j in range(8))
        fit = ols_fit(DesignMatrix(matrix=X, column_names=names, response=y))
        assert np.max(np.abs(fit.coefficients - beta)) <= 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(47)
        X = np.column_stack([np.ones(200), rng.standard_normal((200, 5))])
        y = rng.standard_normal(200)
        names = tuple(f"c{j}" for j in range(6))
        fit = ols_fit(DesignMatrix(matrix=X, column_names=names, response=y))
        residuals = y - X @ fit.coefficients
        for j in range(X.shape[1]):
            col = X[:, j]
            cosine = abs(col @ residuals) / (np.linalg.norm(col) * np.linalg.norm(residuals))
            assert cosine <= 1e-6

    def test_inference_fields_consistent(self):
        rng = np.random.default_rng(53)
        X = np.column_stack([np.ones(80), rng.standard_normal((80, 2))])
        y = rng.standard_normal(80)
        fit = ols_fit(DesignMatrix(matrix=X, column_names=("a", "b", "c"), response=y))
        assert np.all((fit.p_values >= 0.0) & (fit.p_values <= 1.0))
        assert np.all(fit.ci_lower <= fit.coefficients)
        assert np.all(fit.coefficients <= fit.ci_upper)
        assert fit.t_statistics == pytest.approx(fit.coefficients / fit.standard_errors)

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(59)
        base = rng.standard_normal((40, 2))
        X = np.column_stack([np.ones(40), base, base[:, 0] + base[:, 1]])
        names = ("Intercept", "a", "b", "a_plus_b")
        with pytest.raises(RankDeficiencyError) as info:
            ols_fit(DesignMatrix(matrix=X, column_names=names, response=rng.standard_normal(40)))
        assert set(info.value.columns) <= {"a", "b", "a_plus_b"}
        assert info.value.columns

    def test_not_enough_rows(self):
        X = np.ones((3, 3))
        with pytest.raises(DegenerateDesignError, match="rows"):
            ols_fit(DesignMatrix(matrix=X, column_names=("a", "b", "c"), response=np.ones(3)))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(61)
        archs = ["Human", "BART", "T5"]
        datasets = ["CNN/DailyMail", "XSum"]
        records = []
        for i in range(120):
            arch = archs[int(rng.integers(3))]
            train = None if arch == "Human" else datasets[int(rng.integers(2))]
            test = datasets[int(rng.integers(2))]
            records.append(
                make_record(f"s{i}", ["w"] * int(rng.integers(5, 80)), architecture=arch,
                            train_dataset=train, test_dataset=test)
            )
        scores = list(rng.standard_normal(len(records)))
        fit = ols_fit(build_design_matrix(records, scores, SPEC))
        order = rng.permutation(len(records))
        shuffled_records = [records[i] for i in order]
        shuffled_scores = [scores[i] for i in order]
        shuffled_fit = ols_fit(build_design_matrix(shuffled_records, shuffled_scores, SPEC))
        assert shuffled_fit.column_names == fit.column_names
        assert shuffled_fit.coefficients == pytest.approx(fit.coefficients, abs=1e-10)
        assert shuffled_fit.p_values == pytest.approx(fit.p_values, abs=1e-10)


def seeded_designs():
    """(X, y) pairs the fit must factor as scipy.linalg does: C- and
    Fortran-ordered, columns scaled from 1e-8 to 1e8, some with a dependent
    column, p from 1 to 8 and n down to p + 1; one of 160 columns, wide
    enough for LAPACK's blocked QR, whose bits depend on the workspace size;
    then one-hot designs of random labels, some missing a label combination."""
    rng = np.random.default_rng(71)
    yield np.asfortranarray(rng.standard_normal((400, 160))), rng.standard_normal(400)
    for i in range(240):
        p = 1 + i % 8
        n = p + 1 if i % 4 == 0 else p + int(rng.integers(2, 80))
        X = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-8, 9, size=p)
        if i % 5 == 0 and p >= 3:
            X[:, -1] = X[:, 0] - 2.0 * X[:, 1]
        yield (np.asfortranarray(X) if i % 3 == 0 else X), rng.standard_normal(n)
    archs = ["Human", "BART", "T5"]
    datasets = ["CNN/DailyMail", "XSum", "Reddit"]
    for i in range(30):
        records = []
        for j in range(int(rng.integers(12, 90))):
            arch = archs[int(rng.integers(3))]
            train = None if arch == "Human" else datasets[int(rng.integers(3))]
            records.append(make_record(
                f"s{j}", ["w"] * int(rng.integers(3, 60)), architecture=arch,
                train_dataset=train, test_dataset=datasets[int(rng.integers(3))],
            ))
        scores = rng.standard_normal(len(records))
        for spec in (SPEC, replace(SPEC, include_interactions=False)):
            try:
                design = build_design_matrix(records, scores, spec)
            except DegenerateDesignError:
                continue
            if design.n_rows > design.n_cols:
                yield design.matrix, design.response


def assert_same_factor(X, y):
    ours, theirs = _factor(X, y), scipy_factor(X, y)
    assert ours[0] == theirs[0]
    for a, b in zip(ours[1:], theirs[1:]):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return ours[0] == X.shape[1]


class TestFactor:
    """``_factor``'s reply: the rank, the pivot and, at full rank only, the
    fit in column order, each bit for bit what scipy.linalg gives."""

    def test_full_rank_reply_in_column_order(self):
        rng = np.random.default_rng(67)
        # scaled so that the pivoted QR reorders the columns
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 3))]) * [1.0, 0.1, 10.0, 1e3]
        y = rng.standard_normal(50)
        rank, pivot, coef, unit_var = _factor(X, y)
        assert rank == 4
        assert sorted(pivot) == [0, 1, 2, 3] and list(pivot) != [0, 1, 2, 3]
        np.testing.assert_allclose(coef, np.linalg.solve(X.T @ X, X.T @ y), rtol=1e-8)
        np.testing.assert_allclose(unit_var, np.diag(np.linalg.inv(X.T @ X)), rtol=1e-8)

    def test_uninhabited_interaction_reply(self):
        # no record is trained and tested on XSum, so 'XSum - XSum' is all zero
        combos = [("Human", None, "CNN/DailyMail"), ("Human", None, "XSum"),
                  ("BART", "XSum", "CNN/DailyMail"), ("BART", "CNN/DailyMail", "XSum"),
                  ("BART", "CNN/DailyMail", "CNN/DailyMail")]
        records = [
            make_record(f"s{i}", ["w"] * (5 + i % 7), architecture=arch, train_dataset=train,
                        test_dataset=test)
            for i, (arch, train, test) in enumerate(combos * 4)
        ]
        design = build_design_matrix(records, [float(i % 3) for i in range(20)], SPEC)
        rank, pivot, coef, unit_var = _factor(design.matrix, design.response)
        assert rank < design.n_cols and (coef, unit_var) == (None, None)
        assert [design.column_names[j] for j in pivot[rank:]] == ["XSum - XSum"]

    def test_bit_identical_to_scipy_linalg(self):
        designs = list(seeded_designs())
        full_rank = [assert_same_factor(X, y) for X, y in designs]
        assert len(designs) >= 200 and 0 < sum(full_rank) < len(designs)
        assert any(X.flags.f_contiguous and X.shape[1] > 1 for X, _ in designs)

    def test_non_finite_input_raises_as_scipy_linalg(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = np.arange(5.0)
        for bad_X, bad_y in ((X, np.where(y == 2.0, np.nan, y)), (np.where(X == 2.0, np.inf, X), y)):
            for factor in (scipy_factor, _factor):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    factor(bad_X, bad_y)

    def test_fixture_designs_bit_identical_to_scipy_linalg(self, fixture_corpora):
        config = AnalysisConfig()
        records, scores = [], []
        for path in fixture_corpora:
            corpus = load_corpus(path, config.tokenizer)
            index = build_repetition_index(corpus, config.min_n)
            records += corpus.records
            scores += [summary_repetition_score(r, index).score for r in corpus.records]
        for spec in (SPEC, replace(SPEC, include_interactions=False)):
            design = build_design_matrix(records, scores, spec)
            assert assert_same_factor(design.matrix, design.response)


class TestLikelihoodRatio:
    def _designs(self, rng, n=600, interaction_coef=0.0, noise_sd=1.0):
        architectures = ["sysA", "sysB"]
        datasets = ["d1", "d2"]
        spec = RegressionSpec(
            reference_architecture="sysA", reference_train="d1", reference_test="d1"
        )
        records = []
        for i in range(n):
            arch = architectures[int(rng.integers(2))]
            train = datasets[int(rng.integers(2))]
            test = datasets[int(rng.integers(2))]
            records.append(
                make_record(
                    f"s{i}",
                    ["w"] * int(rng.integers(5, 60)),
                    architecture=arch,
                    train_dataset=train,
                    test_dataset=test,
                )
            )
        full = build_design_matrix(records, [0.0] * n, spec)
        nested = build_design_matrix(
            records, [0.0] * n, RegressionSpec(
                reference_architecture="sysA", reference_train="d1", reference_test="d1",
                include_interactions=False,
            )
        )
        names = list(full.column_names)
        beta = np.zeros(len(names))
        beta[0] = 1.0
        beta[names.index("Summary length (z)")] = 0.3
        beta[names.index("sysB")] = 0.8
        beta[names.index("d2 - d2")] = interaction_coef
        y = full.matrix @ beta + noise_sd * rng.standard_normal(n)
        full = DesignMatrix(matrix=full.matrix, column_names=full.column_names, response=y)
        nested = DesignMatrix(matrix=nested.matrix, column_names=nested.column_names, response=y)
        return full, nested

    def test_statistic_matches_definition_and_is_nonnegative(self):
        rng = np.random.default_rng(67)
        full_design, nested_design = self._designs(rng)
        full = ols_fit(full_design)
        nested = ols_fit(nested_design)
        result = likelihood_ratio_test(full, nested)
        assert result.statistic >= 0.0
        assert result.statistic == pytest.approx(
            full.n_rows * math.log(nested.rss / full.rss), rel=1e-12
        )
        assert result.df == full.n_params - nested.n_params

    def test_planted_interaction_rejects(self):
        rng = np.random.default_rng(71)
        full_design, nested_design = self._designs(rng, interaction_coef=1.5)
        result = likelihood_ratio_test(ols_fit(full_design), ols_fit(nested_design))
        assert result.reject
        assert result.p_value < 0.001

    @pytest.mark.parametrize("nested_rss, statistic, p_value, reject", [
        (1.0, math.inf, 0.0, True),
        (0.0, 0.0, 1.0, False),
    ], ids=["nested_rss_positive", "both_rss_zero"])
    def test_exact_full_fit(self, nested_rss, statistic, p_value, reject):
        rng = np.random.default_rng(89)
        full_design, nested_design = self._designs(rng)
        full = dataclasses.replace(ols_fit(full_design), rss=0.0)
        nested = dataclasses.replace(ols_fit(nested_design), rss=nested_rss)
        result = likelihood_ratio_test(full, nested)
        assert (result.statistic, result.p_value, result.reject) == (statistic, p_value, reject)

    def test_identical_models_rejected(self):
        rng = np.random.default_rng(73)
        full_design, _ = self._designs(rng)
        fit = ols_fit(full_design)
        with pytest.raises(ValueError, match="nested"):
            likelihood_ratio_test(fit, fit)

    def test_non_subset_rejected(self):
        rng = np.random.default_rng(79)
        full_design, nested_design = self._designs(rng)
        full = ols_fit(full_design)
        nested = ols_fit(nested_design)
        with pytest.raises(ValueError, match="nested"):
            likelihood_ratio_test(nested, full)

    def test_mismatched_rows_rejected(self):
        rng = np.random.default_rng(83)
        full_design, _ = self._designs(rng, n=400)
        other_full, other_nested = self._designs(rng, n=500)
        with pytest.raises(ValueError, match="row counts"):
            likelihood_ratio_test(ols_fit(full_design), ols_fit(other_nested))
