"""High-accuracy deterministic reference minimizer for gap reporting.

Inexact Newton-CG (Dembo, Eisenstat and Steihaug 1982; as in TRON, Lin,
Weng and Keerthi 2008) drives ||grad F|| below the requested tolerance.
Its line search accepts a sufficient decrease of F or of ||grad F||: near
the minimum F's decrease rounds away in float64, and where a step crosses
a hinge kink ||grad F|| can grow while F falls.

A cache directory holds two kinds of entry, each keyed by content: the
solutions of loss models (``ref-*.bin``, keyed by the dataset, the model
kind, lambda and the tolerance) and parsed LIBSVM files (``data-*.bin``,
keyed by the file's bytes).  Both share one small versioned binary framing
with a SHA-256 of its contents; a hit reproduces what was saved bit-exactly,
and a damaged entry, a flipped byte included, is a miss.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass
from operator import index
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .data import SparseDataset, write_libsvm  # noqa: F401 (bench/spans.py patches it here)
from .losses import LossModel

DEFAULT_TOL = 1e-10   # the gradient-norm tolerance of a reference solve
_DECREASE = 1e-4      # share of the first-order decrease a step must achieve
_MAX_BACKTRACKS = 60


@dataclass
class ReferenceSolution:
    w_star: np.ndarray
    f_star: float
    grad_norm: float
    iterations: int
    converged: bool
    tol: float


def solve_reference(model, tol: float = DEFAULT_TOL, max_iter: int = 1000) -> ReferenceSolution:
    """Minimize ``model`` (with ``d``, ``value(w)``, ``grad_full(w)``,
    ``curvature_at(w)`` and ``mean_hess_vec_from(curvature, v)``) from w = 0
    by inexact Newton-CG.

    Each iteration takes p from :func:`_newton_direction` and halves alpha
    from 1 until, with g = grad F(w), F(w + alpha p) <= F(w) + 1e-4 alpha g^T p
    or ||grad F(w + alpha p)|| <= (1 - 1e-4 alpha) ||g||.  Deterministic.
    When max_iter runs out, or neither F nor ||grad F|| decreases at float
    resolution, the last iterate is returned with ``converged``
    (``grad_norm <= tol``) false.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    w = np.zeros(model.d)
    f, g = model.value(w), model.grad_full(w)
    gnorm = float(np.linalg.norm(g))
    iterations = 0
    while gnorm > tol and iterations < max_iter:
        p = _newton_direction(model, w, g, gnorm)
        slope = float(g @ p)
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            w_try = w + alpha * p
            f_try, g_try = model.value(w_try), model.grad_full(w_try)
            gnorm_try = float(np.linalg.norm(g_try))
            # tested as differences, so that a step that leaves both F and
            # ||grad F|| unchanged never passes
            if (f - f_try >= -_DECREASE * alpha * slope
                    or gnorm - gnorm_try >= _DECREASE * alpha * gnorm):
                break
            alpha *= 0.5
        else:
            break  # neither F nor ||grad F|| decreases at float resolution
        w, f, g, gnorm = w_try, f_try, g_try, gnorm_try
        iterations += 1
    return ReferenceSolution(w, f, gnorm, iterations, gnorm <= tol, tol)


def _newton_direction(model, w, g, gnorm: float) -> np.ndarray:
    """Truncated CG on H p = -g, H = ``model.mean_hess_vec_from(curvature, .)``
    with the curvature at w taken once, to
    ||H p + g|| <= min(0.5, sqrt(||g||)) ||g||, for at most d steps, or up to
    the first direction of non-positive curvature; -g if that is the first.
    """
    target = min(0.5, math.sqrt(gnorm)) * gnorm
    curvature = model.curvature_at(w)
    p = np.zeros_like(g)
    r = -g                  # the residual -g - H p
    d = r.copy()
    rr = gnorm * gnorm
    for _ in range(model.d):
        Hd = model.mean_hess_vec_from(curvature, d)
        dHd = float(d @ Hd)
        if dHd <= 0.0:
            break
        step = rr / dHd
        p += step * d
        r -= step * Hd
        rr_next = float(r @ r)
        if math.sqrt(rr_next) <= target:
            break
        d = r + (rr_next / rr) * d
        rr = rr_next
    return p if p.any() else -g


# -- disk cache --------------------------------------------------------------

# a cache entry is a magic line naming its kind and format version, a line
# with the hex SHA-256 of the rest (the body), then the body: a JSON header on
# one line and arrays in fixed little-endian dtypes.  A change to a format, or
# to what parse_libsvm makes of a file, bumps its version
_MAGIC = b"vrgrad-ref 2\n"
_DATA_MAGIC = b"vrgrad-data 2\n"
CACHE_ENV_VAR = "VRGRAD_CACHE_DIR"


def resolve_cache_dir(cache_dir):
    """``cache_dir``, else the ``VRGRAD_CACHE_DIR`` env var, else None, an
    empty one counting as not given: ``""`` is no cache, not the working
    directory that ``Path("")`` names."""
    return cache_dir or os.environ.get(CACHE_ENV_VAR) or None


def cached_entry(path, load, make, save, accept=lambda value: True):
    """The lookup rule of both kinds of entry: ``load(path)`` when it loads
    and ``accept`` takes it, else ``make()``, saved to ``path`` only when
    ``accept`` takes it.  A damaged entry (``load`` raises ValueError) is a
    miss; a ``path`` of None caches nothing."""
    if path is not None and path.exists():
        with contextlib.suppress(ValueError):   # a damaged entry is a miss
            value = load(path)
            if accept(value):
                return value
    value = make()
    if path is not None and accept(value):
        save(path, value)
    return value


def _save_entry(path, magic: bytes, header: dict, arrays) -> None:
    """Write ``magic``, the checksum line, then ``header`` and each (array,
    dtype) of ``arrays`` to ``path``."""
    body = [json.dumps(header, sort_keys=True).encode() + b"\n",
            *(np.ascontiguousarray(array, dtype=dtype).tobytes() for array, dtype in arrays)]
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(digest.hexdigest().encode() + b"\n")
        fh.writelines(body)


def _load_entry(path, magic: bytes, layout, build):
    """``build(header, arrays)`` of the entry at ``path``, whose arrays are
    the (dtype, length) pairs of ``layout(header)`` and fill the rest of the
    body exactly.  A damaged entry (a body that does not match its checksum
    or its layout), or one that ``build`` rejects with ValueError, KeyError
    or TypeError, raises ValueError naming ``path``.
    """
    with open(path, "rb") as fh:
        head, checksum, body = fh.read(len(magic)), fh.readline(), fh.read()
    try:
        if head != magic:
            raise ValueError(f"magic line {head!r}, not {magic!r}")
        if checksum != hashlib.sha256(body).hexdigest().encode() + b"\n":
            raise ValueError("the body does not match its checksum")
        header, _, payload = body.partition(b"\n")
        header = json.loads(header)
        arrays, offset = [], 0
        for dtype, length in layout(header):
            length = index(length)
            size = np.dtype(dtype).itemsize * length
            if length < 0 or offset + size > len(payload):
                raise ValueError("not one whole cache entry")
            arrays.append(np.frombuffer(payload, dtype, length, offset).copy())
            offset += size
        if offset != len(payload):
            raise ValueError("not one whole cache entry")
        return build(header, arrays)
    except (ValueError, KeyError, TypeError) as err:
        raise ValueError(f"{path}: damaged cache entry: {type(err).__name__}: {err}") from err


def dataset_fingerprint(dataset: SparseDataset) -> str:
    """SHA-256 of what ``SparseDataset.__eq__`` compares: the shape, the
    labels and the CSR ``indptr``, ``indices`` and ``data``.

    Each array is hashed in a fixed little-endian dtype (``<i8`` for the
    shape and index arrays, ``<f8`` for labels and values), because scipy
    picks the index dtype and equal datasets must get one key.
    """
    X = dataset.features
    digest = hashlib.sha256()
    for array, dtype in ((X.shape, "<i8"), (dataset.labels, "<f8"), (X.indptr, "<i8"),
                         (X.indices, "<i8"), (X.data, "<f8")):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def cache_path(cache_dir, dataset: SparseDataset, kind: str, lam: float, tol: float) -> Path:
    key = f"{dataset_fingerprint(dataset)}-{kind}-{lam.hex()}-{tol.hex()}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return Path(cache_dir) / f"ref-{digest}.bin"


def save_reference(path, sol: ReferenceSolution) -> None:
    header = {
        "d": int(sol.w_star.size),
        "f_star": sol.f_star.hex(),
        "grad_norm": sol.grad_norm.hex(),
        "iterations": sol.iterations,
        "converged": sol.converged,
        "tol": sol.tol.hex(),
    }
    _save_entry(path, _MAGIC, header, [(sol.w_star, "<f8")])


def load_reference(path) -> ReferenceSolution:
    """save_reference's entry at ``path``; a damaged one raises ValueError."""
    def build(header, arrays):
        return ReferenceSolution(
            w_star=arrays[0],
            f_star=float.fromhex(header["f_star"]),
            grad_norm=float.fromhex(header["grad_norm"]),
            iterations=int(header["iterations"]),
            converged=bool(header["converged"]),
            tol=float.fromhex(header["tol"]),
        )

    return _load_entry(path, _MAGIC, lambda header: [("<f8", header["d"])], build)


def data_cache_path(cache_dir, raw: bytes) -> Path:
    """The entry of the dataset parsed from the file bytes ``raw``."""
    return Path(cache_dir) / f"data-{hashlib.sha256(raw).hexdigest()}.bin"


def save_dataset_entry(path, dataset: SparseDataset) -> None:
    """Save ``dataset``: n, d and nnz in the header, then the labels and the
    CSR ``indptr``, ``indices`` and ``data``."""
    X = dataset.features
    header = {"n": dataset.n, "d": dataset.d, "nnz": int(X.nnz)}
    _save_entry(path, _DATA_MAGIC, header, [(dataset.labels, "<f8"), (X.indptr, "<i8"),
                                            (X.indices, "<i8"), (X.data, "<f8")])


def load_dataset_entry(path) -> SparseDataset:
    """save_dataset_entry's entry at ``path``; a damaged one raises ValueError."""
    def layout(header):
        n, nnz = index(header["n"]), header["nnz"]
        return [("<f8", n), ("<i8", n + 1), ("<i8", nnz), ("<f8", nnz)]

    def build(header, arrays):
        labels, indptr, indices, data = arrays
        X = sp.csr_matrix((data, indices, indptr), shape=(labels.size, index(header["d"])))
        X.check_format(full_check=True)     # indptr and indices within bounds
        return SparseDataset(X, labels)

    return _load_entry(path, _DATA_MAGIC, layout, build)


def cached_reference(model: LossModel, tol: float = DEFAULT_TOL,
                     cache_dir=None) -> ReferenceSolution:
    """solve_reference with a bit-exact disk cache keyed by
    (dataset hash, model kind, lambda, tol), in ``cache_dir`` or else
    ``VRGRAD_CACHE_DIR``; with neither, nothing is cached.

    Only converged solutions are saved; a damaged entry, or one not
    converged, counts as a miss: it is solved again and overwritten.
    """
    cache_dir = resolve_cache_dir(cache_dir)
    path = None if cache_dir is None else cache_path(
        cache_dir, model.dataset, model.kind, float(model.lam), float(tol))
    return cached_entry(path, load_reference, lambda: solve_reference(model, tol=tol),
                        save_reference, lambda sol: sol.converged)
