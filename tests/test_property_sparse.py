"""Property-based tests (hypothesis) for the sparse-matrix substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import part1d, partition_balance
from repro.sparse import COOMatrix, CSRMatrix

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")


@st.composite
def coo_matrices(draw, max_dim=24, max_nnz=80):
    """Random COO matrices, duplicates and empty matrices included."""
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    rows = draw(
        st.lists(st.integers(min_value=0, max_value=nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(min_value=0, max_value=ncols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return COOMatrix(
        nrows,
        ncols,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.float32),
    )


@given(coo_matrices())
def test_csr_roundtrip_preserves_dense_form(coo):
    csr = CSRMatrix.from_coo(coo)
    assert np.allclose(csr.to_dense(), coo.to_dense(), atol=1e-4)
    # COO -> CSR -> COO -> CSR is a fixed point.
    again = CSRMatrix.from_coo(csr.to_coo())
    assert again == csr


@given(coo_matrices())
def test_csr_structure_invariants(coo):
    csr = CSRMatrix.from_coo(coo)
    assert csr.indptr[0] == 0
    assert csr.indptr[-1] == csr.nnz
    assert np.all(np.diff(csr.indptr) >= 0)
    assert csr.has_sorted_indices()
    assert csr.nnz <= coo.nnz  # duplicates can only shrink
    assert np.array_equal(csr.row_degrees(), np.diff(csr.indptr))


@given(coo_matrices())
def test_transpose_involution(coo):
    csr = CSRMatrix.from_coo(coo)
    assert csr.transpose().transpose() == csr


@given(coo_matrices(), st.integers(min_value=1, max_value=64))
def test_spmm_matches_dense(coo, d):
    csr = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((csr.ncols, min(d, 8))).astype(np.float32)
    assert np.allclose(csr.spmm(Y), csr.to_dense() @ Y, atol=1e-3)


@given(coo_matrices())
def test_row_slice_concatenation_recovers_matrix(coo):
    csr = CSRMatrix.from_coo(coo)
    mid = csr.nrows // 2
    top = csr.row_slice(0, mid)
    bottom = csr.row_slice(mid, csr.nrows)
    stacked = np.vstack([top.to_dense(), bottom.to_dense()]) if csr.nrows else csr.to_dense()
    assert np.allclose(stacked, csr.to_dense(), atol=1e-5)


@given(coo_matrices())
def test_deduplicate_sum_preserves_total(coo):
    dedup = coo.deduplicate(op="sum")
    assert dedup.to_dense().sum() == pytest.approx(coo.to_dense().sum(), abs=1e-3)
    # No duplicate coordinates remain.
    keys = dedup.rows * dedup.ncols + dedup.cols
    assert len(np.unique(keys)) == dedup.nnz


@given(coo_matrices())
def test_symmetrize_produces_symmetric_matrix(coo):
    n = max(coo.nrows, coo.ncols)
    sym = coo.symmetrize()
    dense = sym.to_dense()
    assert dense.shape == (n, n)
    assert np.allclose(dense, dense.T, atol=1e-5)


@given(coo_matrices(), st.integers(min_value=1, max_value=12))
def test_part1d_cover_and_conservation(coo, num_parts):
    csr = CSRMatrix.from_coo(coo)
    parts = part1d(csr, num_parts)
    assert len(parts) == num_parts
    assert parts[0].start == 0 and parts[-1].stop == csr.nrows
    for prev, cur in zip(parts, parts[1:]):
        assert prev.stop == cur.start
    assert sum(p.nnz for p in parts) == csr.nnz
    assert partition_balance(parts) >= 1.0 or csr.nnz == 0


@st.composite
def csr_and_rows(draw, max_rows=12, max_cols=10, max_degree=5):
    """A CSR matrix built from int32 indices (empty rows included) with
    float32 or float64 data, plus a row selection that may repeat rows or
    be empty."""
    nrows = draw(st.integers(min_value=1, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    degs = draw(st.lists(st.integers(0, max_degree), min_size=nrows, max_size=nrows))
    indptr = np.zeros(nrows + 1, dtype=np.int32)
    np.cumsum(degs, out=indptr[1:])
    nnz = int(indptr[-1])
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    vals = draw(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=nnz, max_size=nnz)
    )
    csr = CSRMatrix(
        nrows,
        ncols,
        indptr,
        np.asarray(cols, dtype=np.int32),
        np.asarray(vals, dtype=dtype),
    )
    rows = draw(st.lists(st.integers(0, nrows - 1), max_size=2 * nrows))
    return csr, rows


def _select_rows_reference(csr, rows):
    indptr, indices, data = [0], [], []
    for u in rows:
        lo, hi = csr.indptr[u], csr.indptr[u + 1]
        indices.extend(csr.indices[lo:hi])
        data.extend(csr.data[lo:hi])
        indptr.append(indptr[-1] + hi - lo)
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(data, dtype=csr.data.dtype),
    )


@given(csr_and_rows())
def test_select_rows_matches_row_by_row_copy(case):
    csr, rows = case
    sub = csr.select_rows(rows)
    indptr, indices, data = _select_rows_reference(csr, rows)
    assert (sub.nrows, sub.ncols) == (len(rows), csr.ncols)
    for got, want in ((sub.indptr, indptr), (sub.indices, indices), (sub.data, data)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for bad in (-1, csr.nrows):
        with pytest.raises(IndexError):
            csr.select_rows(rows + [bad])


@given(
    st.lists(st.integers(0, 6), max_size=15),
    st.integers(min_value=0, max_value=50),
    st.booleans(),
)
def test_part1d_single_part_equals_general_path(degs, offset, raw):
    """``part1d(x, 1)`` is the merge of the general path's partitions,
    also for raw ``indptr`` arrays that start above 0."""
    indptr = offset + np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
    if raw:
        x = indptr
    else:
        indptr = indptr - offset
        x = CSRMatrix(len(degs), 1, indptr, np.zeros(int(indptr[-1]), dtype=np.int64))
    (single,) = part1d(x, 1)
    for num_parts in (2, 3):
        parts = part1d(x, num_parts)
        assert (single.start, single.stop) == (parts[0].start, parts[-1].stop)
        assert single.nnz == sum(p.nnz for p in parts) == indptr[-1] - indptr[0]
