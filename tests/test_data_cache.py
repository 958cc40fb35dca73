"""The cache of parsed LIBSVM files, beside the reference solutions: an
entry keyed by the file's bytes, hit, missed, damaged and round-tripped."""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrgrad.harness as harness
import vrgrad.optimizer as optimizer
from vrgrad.data import LibsvmParseError, SparseDataset, parse_libsvm, synth_binary, write_libsvm
from vrgrad.harness import DataSourceError, ExperimentSpec, emit_csv, load_dataset, run_experiment
from vrgrad.reference import (CACHE_ENV_VAR, data_cache_path, dataset_fingerprint,
                              load_dataset_entry, save_dataset_entry)

# dense rows, then an empty one
_TEXT = write_libsvm(synth_binary(30, 4, 7, 0.8)) + "-1\n"


@pytest.fixture
def parses(monkeypatch):
    """The sources harness.parse_libsvm is called with."""
    calls = []

    def counted(source):
        calls.append(source)
        return parse_libsvm(source)

    monkeypatch.setattr(harness, "parse_libsvm", counted)
    return calls


def _data_file(tmp_path, content=_TEXT):
    path = tmp_path / "data.svm"
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    return path


def _spec(path, **fields):
    return ExperimentSpec(data_path=str(path), **fields)


def _same(a, b):
    """Equal datasets, bit for bit, with the same index dtypes."""
    return (a == b and dataset_fingerprint(a) == dataset_fingerprint(b)
            and a.features.indptr.dtype == b.features.indptr.dtype
            and a.features.indices.dtype == b.features.indices.dtype)


def test_a_hit_is_the_parse_of_the_same_bytes_and_parses_nothing(tmp_path, parses):
    path = _data_file(tmp_path)
    cache = tmp_path / "cache"
    miss = load_dataset(_spec(path), cache)
    assert len(parses) == 1
    hit = load_dataset(_spec(path), cache)
    assert len(parses) == 1
    assert _same(hit, parse_libsvm(_TEXT)) and _same(hit, miss)


def test_a_miss_parses_once_and_writes_one_entry_keyed_by_the_bytes(tmp_path, parses):
    path = _data_file(tmp_path)
    cache = tmp_path / "cache"
    load_dataset(_spec(path), cache)
    assert len(parses) == 1
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert [p.name for p in cache.iterdir()] == [f"data-{digest}.bin"]
    assert data_cache_path(cache, path.read_bytes()) == cache / f"data-{digest}.bin"
    assert _same(load_dataset_entry(cache / f"data-{digest}.bin"), parse_libsvm(_TEXT))


def _sealed(magic: bytes, header: bytes, payload: bytes) -> bytes:
    """An entry of these parts whose checksum line is right."""
    body = header + b"\n" + payload
    return b"\n".join([magic, hashlib.sha256(body).hexdigest().encode(), body])


def _damage(whole: bytes, damage: str) -> bytes:
    magic, _, header, payload = whole.split(b"\n", 3)
    if damage == "cut":
        return whole[:-3]
    if damage == "flip":
        # a bit of the last value: only the checksum tells
        return whole[:-1] + bytes([whole[-1] ^ 1])
    if damage == "magic":
        return b"vrgrad-ref 2\n" + whole.split(b"\n", 1)[1]
    if damage == "version":
        # the format before the checksum line
        return b"vrgrad-data 1\n" + header + b"\n" + payload
    # these keep the checksum right, so that the layout checks must tell
    if damage == "header":
        return _sealed(magic, header.replace(b'"nnz": ', b'"nnz": 1'), payload)
    # the last column index, the int64 just before the values, set to d
    shape = json.loads(header)
    at = 8 * (2 * shape["n"] + shape["nnz"])
    return _sealed(magic, header,
                   payload[:at] + np.int64(shape["d"]).tobytes() + payload[at + 8:])


@pytest.mark.parametrize("damage", ["cut", "flip", "magic", "version", "header", "index"])
def test_a_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, parses, damage):
    path = _data_file(tmp_path)
    cache = tmp_path / "cache"
    load_dataset(_spec(path), cache)
    (entry,) = cache.iterdir()
    whole = entry.read_bytes()
    entry.write_bytes(_damage(whole, damage))
    with pytest.raises(ValueError, match=f"{entry}: damaged cache entry"):
        load_dataset_entry(entry)
    assert _same(load_dataset(_spec(path), cache), parse_libsvm(_TEXT))
    assert len(parses) == 2
    assert entry.read_bytes() == whole


def test_one_byte_changed_in_the_file_is_a_new_entry(tmp_path, parses):
    path = _data_file(tmp_path)
    cache = tmp_path / "cache"
    load_dataset(_spec(path), cache)
    changed = bytearray(path.read_bytes())
    assert changed[:2] in (b"+1", b"-1")
    changed[0] ^= ord("+") ^ ord("-")
    path.write_bytes(changed)
    ds = load_dataset(_spec(path), cache)
    assert len(parses) == 2 and len(list(cache.iterdir())) == 2
    assert _same(ds, parse_libsvm(changed.decode()))
    assert ds.labels[0] == -parse_libsvm(_TEXT).labels[0]


def test_load_dataset_without_a_directory_writes_nothing(tmp_path, monkeypatch, parses):
    # the env var is run_experiment's, not load_dataset's
    path = _data_file(tmp_path)
    env_dir, work = tmp_path / "env", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv(CACHE_ENV_VAR, str(env_dir))
    monkeypatch.chdir(work)
    for _ in range(2):
        assert _same(load_dataset(_spec(path)), parse_libsvm(_TEXT))
    assert len(parses) == 2
    assert not env_dir.exists() and not list(work.iterdir())
    run_experiment(_spec(path, lambdas=(1e-2,), grid=(0.1,), epochs=1))
    assert len(list(env_dir.glob("data-*.bin"))) == 1
    assert len(list(env_dir.glob("ref-*.bin"))) == 1


@pytest.mark.parametrize("content, error, message", [
    ("+1 1:0.5\n-1 2:1 x\n", LibsvmParseError, "line 2: expected idx:val, got 'x'"),
    ("", DataSourceError, "holds no sample"),
], ids=["parse-error", "empty"])
def test_a_file_that_fails_writes_no_entry_and_fails_alike_again(tmp_path, parses, content,
                                                                  error, message):
    path = _data_file(tmp_path, content)
    cache = tmp_path / "cache"
    for _ in range(2):
        with pytest.raises(error, match=message) as info:
            load_dataset(_spec(path), cache)
        if error is LibsvmParseError:
            assert info.value.line_no == 2
        assert not cache.exists()
    assert len(parses) == 2


def test_subsample_and_scaling_apply_after_the_cache(tmp_path):
    path = _data_file(tmp_path)
    cache = tmp_path / "cache"
    spec = _spec(path, subsample=12, scale_features=True)
    want = load_dataset(spec)
    assert want.n == 12 and np.abs(want.features).max() == 1.0
    for _ in range(2):      # a miss, then a hit
        assert _same(load_dataset(spec, cache), want)
    (entry,) = cache.iterdir()
    assert _same(load_dataset_entry(entry), parse_libsvm(_TEXT))


def test_outputs_are_byte_identical_with_and_without_a_cache(tmp_path, monkeypatch):
    # wall times are the only bytes that differ from run to run; a fixed clock
    # writes them as 0
    monkeypatch.setattr(optimizer, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    path = _data_file(tmp_path)
    spec = _spec(path, lambdas=(1e-2, 1e-3), methods=("SVRG", "SVRG2", "SVRG2BB"),
                 grid=(0.1, 1.0), epochs=2, seeds=(0, 1))
    outputs = []
    for name, cache in (("plain", None), ("miss", tmp_path / "cache"),
                        ("hit", tmp_path / "cache")):
        out = tmp_path / name
        emit_csv(run_experiment(spec, cache), out)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(list((tmp_path / "cache").glob("data-*.bin"))) == 1
    assert "winners.csv" in outputs[0] and len(outputs[0]) == 2 * 3 * 2 * 2 + 2
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# zeros of both signs (a -0.0 value is dropped, a -0.0 label kept),
# subnormals, the extremes, and values with no short binary form
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1e308, 0.1, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    """Datasets with empty rows and trailing empty columns, n = 1 included."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    X = np.array(draw(st.lists(_VALUES, min_size=n * d, max_size=n * d))).reshape(n, d)
    X[:, draw(st.integers(0, d)):] = 0.0
    labels = draw(st.lists(_VALUES, min_size=n, max_size=n))
    return SparseDataset.from_dense(X, labels)


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_an_entry_round_trips_every_dataset(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("entry") / "data.bin"
    save_dataset_entry(path, ds)
    back = load_dataset_entry(path)
    assert back.d == ds.d and _same(back, ds)
