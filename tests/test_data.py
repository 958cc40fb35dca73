import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vrgrad.data import (LabelError, LibsvmParseError, SparseDataset,
                         parse_libsvm, synth_binary, write_libsvm)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# besides whatever floats hypothesis draws: subnormals, the extremes, and
# decimals with no short binary form
_AWKWARD = st.one_of(_FINITE, st.sampled_from(
    [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3,
     123456789.123456789, 1e15, -1e16]))


@st.composite
def libsvm_datasets(draw):
    """Small datasets with empty rows and awkward labels and values.  d is
    the largest column + 1: LIBSVM text does not record d."""
    rows = draw(st.lists(
        st.lists(st.tuples(st.integers(0, 9), _AWKWARD.filter(bool)),
                 max_size=5, unique_by=lambda entry: entry[0]),
        max_size=6))
    rows = [sorted(row) for row in rows]
    cols = np.array([c for row in rows for c, _ in row], dtype=np.int64)
    vals = np.array([v for row in rows for _, v in row], dtype=np.float64)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    X = sp.csr_matrix((vals, cols, indptr), shape=(len(rows), int(cols.max(initial=-1)) + 1))
    labels = draw(st.lists(_AWKWARD, min_size=len(rows), max_size=len(rows)))
    return SparseDataset(X, labels)


def _row(ds, i):
    """Row i as (0-based columns, values)."""
    row = ds.features[i]
    return list(row.indices), list(row.data)


class TestParse:
    def test_basic_line(self):
        ds = parse_libsvm("+1 1:0.5 3:-2.0")
        assert ds.n == 1 and ds.d == 3
        assert ds.labels[0] == 1.0
        assert _row(ds, 0) == ([0, 2], [0.5, -2.0])

    def test_label_only_line(self):
        ds = parse_libsvm("-1\n+1 2:1.0\n")
        assert list(ds.labels) == [-1.0, 1.0]
        assert _row(ds, 0) == ([], [])

    def test_order_preserving(self):
        text = "+1 1:1.0\n-1 2:2.0\n+1 3:3.0\n"
        ds = parse_libsvm(text)
        assert list(ds.labels) == [1.0, -1.0, 1.0]
        assert _row(ds, 1) == ([1], [2.0])

    def test_label_map(self):
        ds = parse_libsvm("3 1:1.0\n8 1:2.0\n", label_map={3.0: -1.0, 8.0: 1.0})
        assert list(ds.labels) == [-1.0, 1.0]

    def test_label_outside_map(self):
        with pytest.raises(LabelError):
            parse_libsvm("5 1:1.0", label_map={3.0: -1.0, 8.0: 1.0})

    def test_malformed_token_carries_line_number(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("+1 1:0.5\n-1 2:abc\n")
        assert err.value.line_no == 2

    def test_non_numeric_label(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("foo 1:0.5")

    def test_duplicate_index_is_error(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("+1 2:1.0 2:3.0")

    def test_decreasing_index_is_error(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("+1 3:1.0 2:3.0")

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_value_carries_line_number(self, token):
        # line 3 is blank, so the bad value is on line 5 but in row 4
        text = f"+1 1:0.5\n-1 2:1.0\n\n+1 1:2.0\n-1 1:1.0 3:{token}\n+1 2:1.0\n"
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(text)
        assert err.value.line_no == 5
        assert "non-finite" in str(err.value)

    def test_non_finite_label_carries_line_number(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("+1 1:0.5\nnan 2:1.0\n")
        assert err.value.line_no == 2

    def test_labels_stored_as_reals(self):
        # the parser accepts any numeric label; models enforce {-1,+1}
        ds = parse_libsvm("2.5 1:1.0")
        assert ds.labels[0] == 2.5


class TestWrite:
    def test_inverse_of_parse(self):
        ds = parse_libsvm("+1 1:0.5 3:-2.0")
        assert write_libsvm(ds) == "+1 1:0.5 3:-2.0\n"

    def test_empty_dataset(self):
        ds = SparseDataset(sp.csr_matrix((0, 0)), [])
        assert write_libsvm(ds) == ""

    @settings(max_examples=200, deadline=None)
    @given(libsvm_datasets())
    def test_roundtrip_random(self, ds):
        assert parse_libsvm(write_libsvm(ds)) == ds

    def test_roundtrip_many(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mask = rng.random((20, 6)) < 0.5
            vals = rng.standard_normal((20, 6))
            vals[vals == 0.0] = 1.0
            labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
            ds = SparseDataset(sp.csr_matrix(np.where(mask, vals, 0.0)), labels)
            assert parse_libsvm(write_libsvm(ds)) == ds

    def test_roundtrip_awkward_floats(self):
        ds = parse_libsvm("+1 1:1e-300 2:0.1 5:123456789.123456789")
        assert parse_libsvm(write_libsvm(ds)) == ds


class TestSparseTypes:
    def test_dataset_sums_duplicate_entries(self):
        X = sp.csr_matrix(([1.0, 2.0, 3.0], [2, 0, 2], [0, 3]), shape=(1, 4))
        ds = SparseDataset(X, [1.0])
        assert _row(ds, 0) == ([0, 2], [2.0, 4.0])

    def test_dataset_strips_explicit_zeros(self):
        X = sp.csr_matrix((np.array([0.0, 1.0]), np.array([0, 1]),
                           np.array([0, 2])), shape=(1, 2))
        ds = SparseDataset(X, [1.0])
        assert ds.features.nnz == 1

    def test_dimension_monotone_under_append(self):
        ds1 = parse_libsvm("+1 3:1.0\n")
        ds2 = parse_libsvm("+1 3:1.0\n-1 6:1.0\n")
        assert ds2.d >= ds1.d

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            SparseDataset(sp.csr_matrix(np.ones((1, 2))), [1.0, -1.0])

    def test_subsample(self):
        X = sp.random(30, 12, density=0.4, format="csr", random_state=0)
        ds = SparseDataset(X, np.where(np.arange(30) % 2, 1.0, -1.0))
        sub = ds.subsample([3, 7, 11])
        assert sub.n == 3 and sub.d == ds.d
        assert _row(sub, 1) == _row(ds, 7)
        assert sub.labels[1] == ds.labels[7]

    def test_scale_max_abs(self):
        ds = parse_libsvm("+1 1:2.0 2:-4.0\n-1 1:1.0\n")
        scaled = ds.scale_max_abs()
        col_max = np.abs(scaled.features.toarray()).max(axis=0)
        np.testing.assert_allclose(col_max, [1.0, 1.0])


class TestSynth:
    def test_deterministic_by_seed(self):
        assert synth_binary(10, 3, seed=7) == synth_binary(10, 3, seed=7)

    def test_labels_are_signs(self):
        ds = synth_binary(50, 4, seed=1, separability=0.5)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_separable_instance_is_fittable(self):
        # separability=1.0: a classifier fit by the reference solver
        # recovers >= 95% of the training labels
        from vrgrad.losses import LossModel
        from vrgrad.reference import solve_reference

        ds = synth_binary(300, 10, seed=5, separability=1.0)
        model = LossModel(ds, 1e-4, "logistic")
        sol = solve_reference(model, tol=1e-8)
        pred = np.sign(ds.features @ sol.w_star)
        accuracy = np.mean(pred == ds.labels)
        assert accuracy >= 0.95

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            synth_binary(0, 3, seed=0)
