"""OLS regression of repetition scores on generation metadata.

The design matrix one-hot encodes architecture, train dataset, and test
dataset against reference categories, z-scores summary length, and
optionally crosses non-reference train and test datasets as interaction
indicators. Fitting uses a pivoted QR decomposition; inference uses the
t distribution; nested models are compared with a likelihood ratio test
in the Gaussian form n * ln(rss_nested / rss_full).

The fit's linear algebra is ``_factor``: the QR, the rank, the coefficients
and their unscaled variances. It calls three of scipy's compiled LAPACK
wrappers (``dgeqp3``, ``dorgqr``, ``dtrtrs``) with the arguments that
``scipy.linalg`` passes them, and ``_lapack`` loads those wrappers without
importing scipy.linalg, whose import costs a third of a second of CPU. It
is the only code that loads scipy. The rank check and the inference stay
in ``ols_fit``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import SummaryRecord
from .errors import DegenerateDesignError, RankDeficiencyError
from .special import chi2_sf, t_critical, t_two_sided_p

INTERCEPT = "Intercept"
LENGTH = "Summary length (z)"


@dataclass(frozen=True)
class RegressionSpec:
    """Reference categories and inference settings for the fit.

    Records without a train dataset (human references) get an all-zero
    train indicator group and no interactions; with human_train_from_test
    they are instead treated as trained on their test dataset.
    """

    reference_architecture: str = "Human"
    reference_train: str = "CNN/DailyMail"
    reference_test: str = "CNN/DailyMail"
    include_interactions: bool = True
    confidence_level: float = 0.95
    lr_critical_value: float = 0.001
    human_train_from_test: bool = False

    def __post_init__(self):
        for name in ("reference_architecture", "reference_train", "reference_test"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("include_interactions", "human_train_from_test"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("confidence_level", "lr_critical_value"):
            if not isinstance(getattr(self, name), (int, float)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError(f"confidence_level must be in (0, 1), got {self.confidence_level}")
        if not 0.0 < self.lr_critical_value < 1.0:
            raise ValueError(f"lr_critical_value must be in (0, 1), got {self.lr_critical_value}")


@dataclass(frozen=True)
class DesignMatrix:
    matrix: np.ndarray
    column_names: tuple[str, ...]
    response: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class RegressionFit:
    column_names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_statistics: np.ndarray
    p_values: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    rss: float
    n_rows: int
    n_params: int
    confidence_level: float


@dataclass(frozen=True)
class LrTestResult:
    statistic: float
    df: int
    p_value: float
    reject: bool
    critical_value: float = field(default=0.001)


def _effective_train(record: SummaryRecord, spec: RegressionSpec) -> str | None:
    if record.train_dataset is not None:
        return record.train_dataset
    return record.test_dataset if spec.human_train_from_test else None


def build_design_matrix(
    records: Sequence[SummaryRecord],
    scores: Sequence[float],
    spec: RegressionSpec | None = None,
) -> DesignMatrix:
    """Assemble the regression design from scored records.

    Columns, in order: intercept, z-scored summary length, non-reference
    architecture indicators, non-reference train indicators, non-reference
    test indicators, and (when enabled) one indicator per non-reference
    train x test pair, named "TRAIN - TEST". Label groups are sorted so the
    layout is deterministic. Labels that would give two columns one name
    are rejected.
    """
    if spec is None:
        spec = RegressionSpec()
    if len(records) != len(scores):
        raise ValueError(f"{len(records)} records but {len(scores)} scores")
    if not records:
        raise DegenerateDesignError("no records to regress on")

    # one label per record and factor; records without a train dataset hold None
    labels = (
        (r.architecture for r in records),
        (_effective_train(r, spec) for r in records),
        (r.test_dataset for r in records),
    )
    factors = ("architecture", "train dataset", "test dataset")
    references = (spec.reference_architecture, spec.reference_train, spec.reference_test)
    indicators = []  # per factor, (level, column) for each non-reference level
    for factor, reference, values in zip(factors, references, labels):
        # each record's label as an integer code, numbered in first-seen order
        codes: dict[str | None, int] = {}
        coded = np.fromiter((codes.setdefault(v, len(codes)) for v in values),
                            dtype=np.intp, count=len(records))
        present = sorted(set(codes) - {None})
        if present and reference not in present:
            raise DegenerateDesignError(
                f"reference {factor} {reference!r} not present in the data (labels: {present})"
            )
        indicators.append([(level, coded == codes[level]) for level in present
                           if level != reference])

    lengths = np.array([r.length_tokens for r in records], dtype=float)
    sd = float(lengths.std())
    if sd == 0.0:
        raise DegenerateDesignError("summary lengths are constant; z-score is undefined")
    arch, train, test = indicators
    columns = [(INTERCEPT, np.ones(len(records))), (LENGTH, (lengths - lengths.mean()) / sd)]
    columns += arch + [(f"Train {level}", col) for level, col in train]
    columns += [(f"Test {level}", col) for level, col in test]
    if spec.include_interactions:
        columns += [(f"{tr} - {te}", a & b) for tr, a in train for te, b in test]
    names = tuple(name for name, _ in columns)
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise DegenerateDesignError(f"labels give two design columns one name: {clashes}")
    matrix = np.column_stack([col for _, col in columns])
    response = np.asarray(scores, dtype=float)
    return DesignMatrix(matrix=matrix, column_names=names, response=response)


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers, loaded from their file alone, so that
    neither ``scipy/__init__.py`` nor ``scipy/linalg/__init__.py`` runs and
    nothing enters ``sys.modules``; ``scipy.linalg.lapack``, whose routines
    are the same wrappers, where that file is not found."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(os.path.dirname(scipy.origin), "linalg")]
    )
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(spec.name, None)  # where a single-phase extension puts itself
    return module


def _call(routine, *args, **kwargs):
    """A LAPACK wrapper's outputs, after the workspace query that scipy makes."""
    work = routine(*args, lwork=-1, **kwargs)[-2]
    *out, _, info = routine(*args, lwork=work[0].real.astype(np.int_), **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return out


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_triangular(r, b)`` for the C-ordered ``r`` that
    ``_factor`` makes: LAPACK reads ``r`` in Fortran order, so it is solved
    as its transpose, as scipy solves a C-ordered matrix."""
    r, b = np.asarray_chkfinite(r), np.asarray_chkfinite(b)
    x, info = _lapack().dtrtrs(r.T, b, lower=True, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
    return x


def _factor(X: np.ndarray, y: np.ndarray) -> tuple:
    """The linear algebra of ``ols_fit``: a pivoted QR of ``X``.

    Returns ``(rank, pivot, coef, unit_var)``: the numerical rank, the
    column pivot and, when ``X`` has full column rank, the coefficients and
    the diagonal of ``(X'X)^-1``, both in column order. Below full rank
    the last two are None, and ``pivot[rank:]`` names dependent columns.
    The LAPACK calls take the arguments that ``scipy.linalg.qr(X,
    mode="economic", pivoting=True)`` and ``solve_triangular`` pass, so
    the results are theirs bit for bit.
    """
    n, p = X.shape
    qr, pivot, tau = _call(_lapack().dgeqp3, np.asarray_chkfinite(X), overwrite_a=False)
    pivot -= 1  # LAPACK numbers columns from 1
    r = np.triu(qr[:p, :])
    diag = np.abs(np.diag(r))
    tol = (diag[0] if diag.size else 0.0) * max(n, p) * np.finfo(float).eps
    rank = int(np.count_nonzero(diag > tol))
    if rank < p:
        return rank, pivot, None, None
    (q,) = _call(_lapack().dorgqr, qr, tau, overwrite_a=1)
    r_inv = _solve_upper(r, np.eye(p))
    coef = np.empty(p)
    coef[pivot] = _solve_upper(r, q.T @ y)
    unit_var = np.empty(p)
    unit_var[pivot] = np.sum(r_inv * r_inv, axis=1)
    return rank, pivot, coef, unit_var


def ols_fit(design: DesignMatrix, *, confidence_level: float = 0.95) -> RegressionFit:
    """Least squares fit with t-based inference.

    Solves via pivoted QR, which tolerates the collinear indicator blocks
    better than explicit normal equations; rank deficiency is an error that
    names the dependent columns rather than a silent pseudo-inverse.
    """
    X = design.matrix
    y = design.response
    n, p = X.shape
    if n <= p:
        raise DegenerateDesignError(
            f"need more rows than parameters, got {n} rows for {p} parameters"
        )

    rank, pivot, coef, unit_var = _factor(X, y)
    if rank < p:
        raise RankDeficiencyError(sorted(design.column_names[j] for j in pivot[rank:]))

    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    dof = n - p
    se = np.sqrt(unit_var * (rss / dof))

    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = coef / se
    t_stats = np.where(np.isnan(t_stats), 0.0, t_stats)  # 0/0 on a perfect fit
    p_values = np.array([t_two_sided_p(t, dof) for t in t_stats])
    crit = t_critical(confidence_level, dof)
    return RegressionFit(
        column_names=design.column_names,
        coefficients=coef,
        standard_errors=se,
        t_statistics=t_stats,
        p_values=p_values,
        ci_lower=coef - crit * se,
        ci_upper=coef + crit * se,
        rss=rss,
        n_rows=n,
        n_params=p,
        confidence_level=confidence_level,
    )


def likelihood_ratio_test(
    full: RegressionFit, nested: RegressionFit, *, critical_value: float = 0.001
) -> LrTestResult:
    """Compare nested OLS fits on the same rows and response.

    The statistic n * ln(rss_nested / rss_full) is twice the difference of
    the maximized Gaussian log-likelihoods; it is referred to chi-square
    with one degree of freedom per dropped column.
    """
    if full.n_rows != nested.n_rows:
        raise ValueError(
            f"row counts differ: full has {full.n_rows}, nested has {nested.n_rows}"
        )
    full_cols = set(full.column_names)
    nested_cols = set(nested.column_names)
    if not nested_cols < full_cols:
        raise ValueError(
            "models are not strictly nested: the nested model's columns must be "
            "a strict subset of the full model's"
        )
    df = full.n_params - nested.n_params
    if full.rss == 0.0:
        statistic = math.inf if nested.rss > 0.0 else 0.0
    else:
        statistic = max(0.0, full.n_rows * math.log(nested.rss / full.rss))
    p_value = chi2_sf(statistic, df)
    return LrTestResult(
        statistic=statistic,
        df=df,
        p_value=p_value,
        reject=p_value < critical_value,
        critical_value=critical_value,
    )
