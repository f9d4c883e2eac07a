import pickle

import pytest

from repscope.errors import MissingPairedInputError, RankDeficiencyError


@pytest.mark.parametrize("error, field", [
    (RankDeficiencyError(["XSum - XSum", "Test XSum"]), "columns"),
    (MissingPairedInputError([f"s{i}" for i in range(12)]), "record_ids"),
], ids=["rank_deficiency", "missing_paired_input"])
def test_error_survives_pickle(error, field):
    # a process pool sends a worker's exception back pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert getattr(copy, field) == getattr(error, field)
