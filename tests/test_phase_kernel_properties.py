"""Differential tests: the array phase kernel against the scalar phase path.

``_exact.cis`` evaluates a table of residues in one numpy pass, and
``build_evaluation_matrix``, ``DualBasis.build`` and
``sample_signal`` evaluate every phase through it over whole
integer arrays.  The references in ``reference`` are the per-entry paths
they replaced, built on its scalar ``cis``: one
``Fraction`` phase at a time, and the closed form of each sample in
Python complex arithmetic.  The array code must reproduce those floats
bit for bit, not just to a tolerance.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (reference_cis, reference_evaluation_matrix, reference_piece_coefficients,
                       reference_samples)
from strategies import BELOW_2_62, bits, indexed_sets, sized_sets, slab_domains

from spectralpairs import _exact
from spectralpairs import (
    BandlimitedSignal,
    BoxDomain,
    DualBasis,
    NonInvertibleError,
    SamplePattern,
    build_evaluation_matrix,
    sample_signal,
)


def check_cis(nums, den):
    got = _exact.cis(nums, den)
    assert got.dtype == complex and got.shape == np.shape(nums)
    assert got.tobytes() == reference_cis(nums, den).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**53 - 1), st.lists(BELOW_2_62, max_size=40))
def test_cis_int64_path_is_bit_identical(den, nums):
    """Residues and denominator below 2**53: one float64 quotient per residue."""
    check_cis(np.array(nums, dtype=np.int64), den)


@settings(max_examples=200, deadline=None)
@given(st.integers(2**53, 2**62), st.lists(BELOW_2_62, max_size=40))
def test_cis_int64_input_past_2_53_is_bit_identical(den, nums):
    """int64 residues whose quotient float64 cannot form exactly: Python-int quotients."""
    check_cis(np.array(nums, dtype=np.int64), den)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**80), st.lists(st.integers(-(2**80), 2**80), max_size=40))
def test_cis_python_int_path_is_bit_identical(den, nums):
    check_cis(np.array(nums, dtype=object), den)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**70), st.sampled_from([1, 2, 4]), st.lists(st.integers(-8, 8), max_size=12),
       st.sampled_from([np.int64, object]))
def test_quarter_residues_are_exact(m, turns, multiples, dtype):
    """Numerators on the quarter phases of den = turns m give exactly 1, i, -1, -i, where
    -i has real part -0.0 as Python writes it."""
    den = turns * m
    if dtype is np.int64 and 8 * den >= 2**62:  # callers size int64 for the modulus too
        dtype = object
    nums = np.array([q * m for q in multiples], dtype=dtype)
    check_cis(nums, den)
    quarters = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}
    expected = [quarters[q * 4 // turns % 4] for q in multiples]
    assert _exact.cis(nums, den).tobytes() == np.array(expected, dtype=complex).tobytes()


@st.composite
def residue_table_cases(draw):
    """(nums, den, dtype): den on both sides of the number of numerators, which are
    negative too, and with a multiple of 4 as den, the quarter residues among them."""
    den = draw(st.integers(1, 48))
    nums = draw(st.lists(st.integers(-3 * den - 2**40, 3 * den + 2**40), max_size=96))
    if den % 4 == 0:
        nums += [q * den // 4 for q in range(-5, 6)]
    return nums, den, draw(st.sampled_from([np.int64, object]))


@settings(max_examples=300, deadline=None)
@given(residue_table_cases())
def test_cis_residue_table_is_bit_identical(case):
    """int64 numerators that outnumber den index a table of all den residues instead of
    sorting out the distinct ones; object arrays always sort."""
    nums, den, dtype = case
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        check_cis(np.array(nums, dtype=dtype), den)
    assert unique.called == (dtype is object or den >= len(nums))


def test_cis_empty_and_zero_dimensional_shapes():
    for den in (1, 7, 2**53 + 5, 2**80):
        dtype = np.int64 if den < 2**62 else object  # callers size int64 for the modulus too
        check_cis(np.zeros(0, dtype=dtype), den)
        check_cis(np.zeros((3, 0), dtype=object), den)
        for u in (0, 1, -5, den // 4, 3 * den // 4 + 1):
            check_cis(np.array(u, dtype=dtype), den)


@st.composite
def finite_pairs(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 39 if d == 1 else 9))
    k = draw(st.integers(0, min(5, n**d)))
    m = draw(st.integers(k, min(k + 2, n**d)))
    return draw(sized_sets(n, d, k)), draw(sized_sets(n, d, m))


@settings(max_examples=300, deadline=None)
@given(finite_pairs())
def test_evaluation_matrix_is_bit_identical(pair):
    a, j = pair
    got = build_evaluation_matrix(a, j).entries
    assert got.shape == (len(j), len(a)) and got.dtype == complex
    assert got.tobytes() == reference_evaluation_matrix(a, j).tobytes()


@st.composite
def square_pairs(draw):
    """(A, J) with #A = #J >= 1, over the N and d ranges of ``finite_pairs``."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 39 if d == 1 else 9))
    k = draw(st.integers(1, min(5, n**d)))
    return draw(indexed_sets(n, d, k)), draw(indexed_sets(n, d, k))


@settings(max_examples=200, deadline=None)
@given(square_pairs())
def test_piece_coefficients_are_bit_identical(pair):
    a, j = pair
    f = build_evaluation_matrix(a, j).entries
    try:
        got = DualBasis.build(BoxDomain.interval(0, 1), a, j).piece_coefficients
    except NonInvertibleError:
        assume(False)
    assert got.tobytes() == reference_piece_coefficients(f).tobytes()


COEFFICIENTS = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False),
    st.one_of(st.just(0.0), st.floats(-3, 3, allow_nan=False)),
)


@st.composite
def signals_and_patterns(draw):
    dom = draw(slab_domains(1))  # up to four disjoint intervals with rational ends
    pieces = tuple(draw(st.lists(COEFFICIENTS, min_size=1, max_size=4)) for _ in dom.boxes)
    n = draw(st.integers(1, 12))
    j = draw(sized_sets(n, 1, draw(st.integers(1, n))))
    return BandlimitedSignal(dom, pieces), SamplePattern.from_finite_set(j, draw(st.integers(0, 8)))


@settings(max_examples=200, deadline=None)
@given(signals_and_patterns())
def test_samples_are_bit_identical(case):
    signal, pattern = case
    got = sample_signal(signal, pattern)
    assert all(type(z) is complex for z in got)
    assert bits(got) == bits(reference_samples(signal, pattern))
