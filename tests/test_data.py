import numpy as np
import pytest

from vrgrad.data import (LabelError, LibsvmParseError, SparseDataset,
                         SparseVector, parse_libsvm, synth_binary,
                         write_libsvm)


def _random_dataset(rng, n=100, d=12, density=0.4):
    samples = []
    labels = []
    for _ in range(n):
        mask = rng.random(d) < density
        idx = np.flatnonzero(mask)
        vals = rng.standard_normal(idx.size)
        vals[vals == 0.0] = 1.0
        samples.append(SparseVector(idx, vals, d))
        labels.append(1.0 if rng.random() < 0.5 else -1.0)
    return SparseDataset.from_samples(samples, labels, dim=d)


class TestParse:
    def test_basic_line(self):
        ds = parse_libsvm("+1 1:0.5 3:-2.0")
        assert ds.n == 1 and ds.d == 3
        assert ds.labels[0] == 1.0
        sv = ds.sample(0)
        assert list(sv.indices) == [0, 2]
        assert list(sv.values) == [0.5, -2.0]

    def test_label_only_line(self):
        ds = parse_libsvm("-1", dim=4)
        assert ds.labels[0] == -1.0
        assert ds.sample(0).indices.size == 0

    def test_order_preserving(self):
        text = "+1 1:1.0\n-1 2:2.0\n+1 3:3.0\n"
        ds = parse_libsvm(text)
        assert list(ds.labels) == [1.0, -1.0, 1.0]
        assert ds.sample(1).indices[0] == 1

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

    def test_forced_dim(self):
        ds = parse_libsvm("+1 2:1.0", dim=10)
        assert ds.d == 10
        with pytest.raises(LibsvmParseError):
            parse_libsvm("+1 11:1.0", dim=10)

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
        ds = SparseDataset.from_samples([], [], dim=0)
        assert write_libsvm(ds) == ""

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        ds = _random_dataset(rng)
        assert parse_libsvm(write_libsvm(ds)) == ds

    def test_roundtrip_many(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ds = _random_dataset(rng, n=20, d=6, density=0.5)
            assert parse_libsvm(write_libsvm(ds)) == ds

    def test_roundtrip_awkward_floats(self):
        ds = parse_libsvm("+1 1:1e-300 2:0.1 5:123456789.123456789")
        assert parse_libsvm(write_libsvm(ds)) == ds


class TestSparseTypes:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([1, 1]), np.array([1.0, 2.0]), 4)

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([4]), np.array([1.0]), 4)

    def test_no_stored_zeros(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([0]), np.array([0.0]), 2)

    def test_dataset_sums_duplicate_entries(self):
        import scipy.sparse as sp
        X = sp.csr_matrix(([1.0, 2.0, 3.0], [2, 0, 2], [0, 3]), shape=(1, 4))
        ds = SparseDataset(X, [1.0])
        assert list(ds.sample(0).indices) == [0, 2]
        assert list(ds.sample(0).values) == [2.0, 4.0]

    def test_dataset_strips_explicit_zeros(self):
        import scipy.sparse as sp
        X = sp.csr_matrix((np.array([0.0, 1.0]), np.array([0, 1]),
                           np.array([0, 2])), shape=(1, 2))
        ds = SparseDataset(X, [1.0])
        assert ds.features.nnz == 1

    def test_dimension_monotone_under_append(self):
        sv = SparseVector(np.array([2]), np.array([1.0]), 3)
        ds1 = SparseDataset.from_samples([sv], [1.0])
        bigger = SparseVector(np.array([5]), np.array([1.0]), 6)
        ds2 = SparseDataset.from_samples([sv, bigger], [1.0, -1.0])
        assert ds2.d >= ds1.d

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            SparseDataset.from_samples(
                [SparseVector(np.array([0]), np.array([1.0]), 2)], [1.0, -1.0])

    def test_subsample(self):
        rng = np.random.default_rng(0)
        ds = _random_dataset(rng, n=30)
        sub = ds.subsample([3, 7, 11])
        assert sub.n == 3
        assert sub.sample(1) == ds.sample(7)

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
