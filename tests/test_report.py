import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dampedchain.report import build_report, serialize
from conftest import SPECIAL_FLOATS, square_matrices

ANY_FINITE = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


def report_holding(matrix):
    echo = {
        "matrix": matrix,
        "damping": [0.25, 0.75],
        "initial": [-0.0, 1.0],
        "epsilon": 0.1,
        "epsilon_grid": None,
        "seed": None,
    }
    return build_report("structure", echo, {"structure": {"regime": "regular", "classes": []}})


def old_serialize(entries):
    return json.dumps(report_holding(entries.tolist()), indent=2, allow_nan=False)


class TestSerializeMatchesJson:
    """The echo written from the array equals json's text for its nested lists."""

    @settings(max_examples=200, deadline=None)
    @given(square_matrices(ANY_FINITE))
    def test_random_matrices(self, entries):
        assert serialize(report_holding(entries)) == old_serialize(entries)

    @pytest.mark.parametrize(
        "entries",
        [
            [[1.0]],
            [[-0.0]],
            [[5e-324, 1e-300, 0.1 + 0.2], [1 / 3, -0.0, 0.0], [0.0, 1.0, 0.0]],
        ],
        ids=["one-state", "negative-zero", "specials"],
    )
    def test_fixed_matrices(self, entries):
        entries = np.array(entries)
        assert serialize(report_holding(entries)) == old_serialize(entries)

    def test_sparse_matrix(self):
        # About 1% nonzeros, spliced into the all-zero row: specials, the first
        # and last columns, and a row with no nonzero at all.
        rng = np.random.default_rng(3)
        entries = np.where(rng.random((200, 200)) < 0.01, rng.random((200, 200)), 0.0)
        entries[0, 0] = -0.0
        entries[1, 199] = 5e-324
        entries[2, [0, 199]] = [0.1 + 0.2, 1 / 3]
        entries[3, 0] = entries[3, 199] = -0.0
        entries[4] = 0.0
        assert serialize(report_holding(entries)) == old_serialize(entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        entries = np.full((3, 3), 1 / 3)
        entries[1, 2] = bad
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize(report_holding(entries))
        with pytest.raises(ValueError, match="not JSON compliant"):
            old_serialize(entries)
