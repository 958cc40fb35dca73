"""Sparse labeled datasets: LIBSVM text I/O and synthetic generators.

On disk the LIBSVM convention is 1-based feature indices; in memory
everything is 0-based.  A constructed dataset is immutable and can be
shared freely between concurrent solver runs.
"""

from __future__ import annotations

import io

import numpy as np
import scipy.sparse as sp


class LibsvmParseError(ValueError):
    """Malformed LIBSVM line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LabelError(ValueError):
    """A label fell outside the supplied normalization rule."""


class SparseDataset:
    """n sparse samples with real labels, backed by a CSR matrix.

    Labels are stored as plain reals; classification models validate the
    {-1,+1} constraint themselves so regression extensions stay possible.
    """

    def __init__(self, features: sp.csr_matrix, labels: np.ndarray):
        features = sp.csr_matrix(features, dtype=np.float64, copy=True)
        # sorted, unique column indices per row: the oracles write a row's
        # columns with one fancy-indexed update
        features.sum_duplicates()
        features.eliminate_zeros()
        labels = np.array(labels, dtype=np.float64)
        if labels.ndim != 1 or features.shape[0] != labels.shape[0]:
            raise ValueError("labels must be 1-d with one entry per sample")
        self._X = features
        self._labels = labels
        self._labels.setflags(write=False)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dense(cls, X: np.ndarray, labels) -> "SparseDataset":
        return cls(sp.csr_matrix(np.asarray(X, dtype=np.float64)), labels)

    # -- basic views -----------------------------------------------------

    @property
    def n(self) -> int:
        return self._X.shape[0]

    @property
    def d(self) -> int:
        return self._X.shape[1]

    @property
    def features(self) -> sp.csr_matrix:
        return self._X

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def subsample(self, indices) -> "SparseDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return SparseDataset(self._X[indices], self._labels[indices])

    def scale_max_abs(self) -> "SparseDataset":
        """Divide every feature column by its max |value| (zero columns kept)."""
        scale = np.maximum(np.abs(self._X).max(axis=0).toarray().ravel(), 1e-300)
        D = sp.diags(1.0 / scale)
        return SparseDataset(self._X @ D, self._labels)

    def __eq__(self, other):
        if not isinstance(other, SparseDataset):
            return NotImplemented
        return (
            self._X.shape == other._X.shape
            and np.array_equal(self._labels, other._labels)
            and np.array_equal(self._X.indptr, other._X.indptr)
            and np.array_equal(self._X.indices, other._X.indices)
            and np.array_equal(self._X.data, other._X.data)
        )

    def __repr__(self):
        return f"SparseDataset(n={self.n}, d={self.d}, nnz={self._X.nnz})"


def parse_libsvm(source, label_map: dict | None = None) -> SparseDataset:
    """Parse LIBSVM text (``label idx:val idx:val ...``, 1-based indices).

    Parameters
    ----------
    source : str, file-like, or iterable of lines
    label_map : optional mapping applied to each parsed label, e.g.
        ``{3.0: -1.0, 8.0: +1.0}``; a label missing from the map raises
        :class:`LabelError`.

    The dimension d is the largest index seen.  Duplicate or non-increasing
    indices within a line, and non-finite labels or values (``inf``,
    ``nan``), are a parse error.
    """
    if isinstance(source, str):
        lines = io.StringIO(source)
    elif hasattr(source, "read"):
        lines = source
    else:
        lines = iter(source)

    labels: list[float] = []
    line_nos: list[int] = []
    rows_idx: list[np.ndarray] = []
    rows_val: list[np.ndarray] = []
    max_index = -1

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(f"non-numeric label {tokens[0]!r}", line_no) from None
        if label_map is not None:
            if label not in label_map:
                raise LabelError(f"line {line_no}: label {label!r} not covered by the label map")
            label = float(label_map[label])

        idx = np.empty(len(tokens) - 1, dtype=np.int64)
        val = np.empty(len(tokens) - 1)
        prev = 0
        for j, tok in enumerate(tokens[1:]):
            part = tok.split(":", 1)
            if len(part) != 2:
                raise LibsvmParseError(f"expected idx:val, got {tok!r}", line_no)
            try:
                k = int(part[0])
                v = float(part[1])
            except ValueError:
                raise LibsvmParseError(f"non-numeric token {tok!r}", line_no) from None
            if k <= prev:
                raise LibsvmParseError(f"index {k} not strictly increasing (after {prev})", line_no)
            prev = k
            idx[j] = k - 1
            val[j] = v
        if idx.size:
            max_index = max(max_index, int(idx[-1]))

        labels.append(label)
        line_nos.append(line_no)
        rows_idx.append(idx)
        rows_val.append(val)

    d = max_index + 1
    n = len(labels)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, idx in enumerate(rows_idx):
        indptr[i + 1] = indptr[i] + idx.size
    indices = np.concatenate(rows_idx) if rows_idx else np.zeros(0, dtype=np.int64)
    values = np.concatenate(rows_val) if rows_val else np.zeros(0)
    labels = np.asarray(labels)
    # one pass over the assembled arrays rather than a check per token
    if not np.isfinite(labels).all():
        row = int(np.argmin(np.isfinite(labels)))
        raise LibsvmParseError(f"non-finite label {float(labels[row])!r}", line_nos[row])
    if not np.isfinite(values).all():
        k = int(np.argmin(np.isfinite(values)))
        row = int(np.searchsorted(indptr, k, side="right")) - 1
        raise LibsvmParseError(f"non-finite value {float(values[k])!r}", line_nos[row])
    X = sp.csr_matrix((values, indices, indptr), shape=(n, d))
    return SparseDataset(X, labels)


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return f"{int(x):+d}" if x >= 0 else str(int(x))
    return repr(float(x))


def write_libsvm(dataset: SparseDataset) -> str:
    """Canonical LIBSVM text: 1-based indices, ascending entry order.

    ``parse_libsvm(write_libsvm(ds)) == ds`` exactly (values use the
    shortest float representation that round-trips).
    """
    X = dataset.features
    out = []
    for i in range(dataset.n):
        sl = slice(X.indptr[i], X.indptr[i + 1])
        parts = [_fmt_number(dataset.labels[i])]
        parts.extend(
            f"{int(k) + 1}:{repr(float(v))}"
            for k, v in zip(X.indices[sl], X.data[sl])
        )
        out.append(" ".join(parts))
    return "".join(line + "\n" for line in out)


def synth_binary(n: int, d: int, seed: int, separability: float = 1.0) -> SparseDataset:
    """Deterministic synthetic binary classification instance.

    Rows are Gaussian with variance 1/d (so ||a_i|| ~ 1); labels come from
    a random ground-truth hyperplane, each flipped with probability
    ``(1 - separability) / 2`` clipped to [0, 1/2].
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) / np.sqrt(d)
    w_true = rng.standard_normal(d)
    labels = np.where(X @ w_true >= 0.0, 1.0, -1.0)
    flip_p = min(max((1.0 - separability) / 2.0, 0.0), 0.5)
    flips = rng.random(n) < flip_p
    labels[flips] *= -1.0
    return SparseDataset.from_dense(X, labels)
