"""Error types shared across the package.

Two families matter to callers: problems with the data being read
(InputError) and problems with the requested analysis (AnalysisError).
The command line maps them to exit codes 1 and 2 respectively.
"""


class RepscopeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RepscopeError):
    """The input data is missing, malformed, or violates a corpus invariant."""


class CorpusLoadError(InputError):
    """A corpus file could not be parsed; the message carries the line number."""


class EmptyCorpusError(InputError):
    """A corpus file, or a Corpus built in code, holds no records."""


class MissingPairedInputError(InputError):
    """Abstractiveness needs every record to carry its source document."""

    def __init__(self, record_ids):
        self.record_ids = list(record_ids)
        shown = ", ".join(repr(r) for r in self.record_ids[:10])
        more = "" if len(self.record_ids) <= 10 else f" (and {len(self.record_ids) - 10} more)"
        super().__init__(f"records without a paired input: {shown}{more}")


class AnalysisError(RepscopeError):
    """The requested analysis cannot be computed on this data."""


class DegenerateDesignError(AnalysisError):
    """The regression design has too few rows or no usable variation."""


class RankDeficiencyError(AnalysisError):
    """The design matrix is rank deficient; names the offending columns."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "design matrix is rank deficient; linearly dependent or constant "
            "columns: " + ", ".join(repr(c) for c in self.columns)
        )
