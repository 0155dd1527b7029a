"""Property tests: the compiled matrix form agrees with the exact Python-int energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsat_qubo.qubo import EXACT_INT64_BOUND, QuboMatrix, energy, energy_many
from maxsat_qubo.solvers import energy_gains

SHAPES = ("random", "diagonal", "star", "dim1")
COEFFS = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 55), 2 ** 55)).filter(bool)


@st.composite
def matrices(draw, shape):
    """A matrix of the given shape and a block of 0/1 rows for it."""
    dim = 1 if shape == "dim1" else draw(st.integers(2, 10))
    diagonal = st.dictionaries(st.integers(0, dim - 1).map(lambda i: (i, i)), COEFFS)
    entries = draw(diagonal)
    if shape == "random":
        pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)).filter(
            lambda p: p[0] < p[1])
        entries.update(draw(st.dictionaries(pairs, COEFFS)))
    elif shape == "star":
        center = draw(st.integers(0, dim - 1))
        for j in range(dim):
            if j != center:
                entries[(min(center, j), max(center, j))] = draw(COEFFS)
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=dim, max_size=dim),
                         min_size=1, max_size=6))
    return QuboMatrix(dim, entries), np.asarray(rows, dtype=np.int64)


def _width(q):
    return q.diag_coupling().idx.shape[1]


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_energy_many_equals_exact_energy(shape, data):
    q, rows = data.draw(matrices(shape))
    if shape in ("diagonal", "dim1"):
        assert _width(q) == 0
    elif shape == "star":
        assert _width(q) == q.dim - 1
    assert energy_many(q, rows).tolist() == [energy(q, row) for row in rows.tolist()]


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_energy_gains_equal_flip_differences(shape, data):
    q, rows = data.draw(matrices(shape))
    for bits in rows.tolist():
        before = energy(q, bits)
        gains = energy_gains(q, bits)
        for i in range(q.dim):
            flipped = list(bits)
            flipped[i] ^= 1
            assert gains[i] == energy(q, flipped) - before


def test_compiled_form_refuses_inexact_sums():
    edge = QuboMatrix(2, {(0, 0): 2 ** 61, (0, 1): -(2 ** 61) + 1})
    ones = np.ones((1, 2), dtype=np.int64)
    assert energy_many(edge, ones).tolist() == [energy(edge, (1, 1))]
    assert energy_many(QuboMatrix(1, {(0, 0): EXACT_INT64_BOUND - 1}), [[1]]).tolist() == \
        [EXACT_INT64_BOUND - 1]
    over = QuboMatrix(2, {(0, 0): 2 ** 61, (1, 1): -(2 ** 61)})
    with pytest.raises(ValueError, match="2\\^62"):
        energy_many(over, ones)
    with pytest.raises(ValueError, match="2\\^62"):
        energy_gains(over, (1, 0))
    # the exact scalar energy has no bound
    assert energy(QuboMatrix(1, {(0, 0): 3 * 2 ** 61}), (1,)) == 3 * 2 ** 61
