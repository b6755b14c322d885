import base64

import numpy as np
import pytest
from hypothesis import strategies as st

from hocroute.core import LabelDistribution, SnapshotExample
from hocroute.synthetic import SINUSOIDAL, generate


def simplex_arrays(classes: int):
    """Hypothesis strategy for rows of the probability simplex."""
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=classes, max_size=classes
    ).map(lambda w: np.asarray(w) / np.sum(w))


def simplexes(classes: int):
    return simplex_arrays(classes).map(LabelDistribution)


def make_example(eid, weak, labels, features=None, p_star=None):
    return SnapshotExample(
        id=eid,
        weak_pred=LabelDistribution(weak),
        labels=labels,
        features=features,
        p_star=None if p_star is None else LabelDistribution(p_star),
    )


def packed_rows(rows) -> str:
    """Rows of numbers as a version-3 model file's ``rows`` text."""
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


def unpacked_rows(payload: dict) -> list[list[float]]:
    """A version-3 model payload's ``rows``, as the lists of numbers of version 2."""
    return np.frombuffer(base64.b64decode(payload["rows"]), "<f8").reshape(-1, payload["num_classes"]).tolist()


@pytest.fixture(scope="session")
def small_run():
    """A desk-sized seeded synthetic run shared across test modules."""
    return generate(SINUSOIDAL, sizes=(4000, 2000, 4000), k=50, seed=11)
