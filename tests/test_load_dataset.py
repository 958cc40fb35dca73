"""load_dataset reads a LIBSVM file as a text-mode open reads it: the
locale's encoding, universal newlines, and an undecodable byte raising where
the 8192-byte chunk that holds it is decoded.  With a cache directory, a
miss and then a hit give the same dataset, error and line number."""

import pytest

from vrgrad.data import LibsvmParseError, parse_libsvm
from vrgrad.harness import DataSourceError, ExperimentSpec, load_dataset
from vrgrad.reference import dataset_fingerprint

_LF = b"+1 1:0.5 3:-2\n-1 2:1\n\n+1 3:0.25\n"
_LINE = b"+1 1:0.5 2:0.25\r\n"
# 819 lines of 10 bytes, then a line "1\r\n" whose "\r" is the first chunk's
# last byte and whose "\n" starts the second
_ACROSS = b"+1 1:0.5\r\n" * 819 + b"1\r\n" + b"-1 2:1\r\n"

_FILES = {
    "lf": _LF,
    "crlf": _LF.replace(b"\n", b"\r\n"),
    "lone-cr": _LF.replace(b"\n", b"\r"),
    "no-final-newline": _LF.rstrip(b"\n"),
    "crlf-across-a-chunk": _ACROSS,
    "crlf-across-a-chunk-then-an-error": _ACROSS + b"bad\r\n",
    "utf8-non-ascii": "+1 1:0.5\n-1 2:1 # é\n".encode(),
    "undecodable": b"+1 1:0.5\n-1 \xff:1\n",
    "undecodable-in-a-later-chunk": _LINE * 700 + b"-1 \xff:1\n" + _LINE,
    "parse-error-before-an-undecodable-chunk": _LINE * 3 + b"x\n" + _LINE * 700 + b"\xff\n",
    "empty": b"",
}


def _dataset_outcome(ds):
    return ds, dataset_fingerprint(ds)


# what a text-mode open reads from the files whose reading does not depend
# on the locale's encoding
_PINNED = {
    "lf": _dataset_outcome(parse_libsvm(_LF.decode())),
    "crlf": _dataset_outcome(parse_libsvm(_LF.decode())),
    "lone-cr": _dataset_outcome(parse_libsvm(_LF.decode())),
    "no-final-newline": _dataset_outcome(parse_libsvm(_LF.decode())),
    "crlf-across-a-chunk": _dataset_outcome(parse_libsvm(_ACROSS.replace(b"\r", b"").decode())),
    "crlf-across-a-chunk-then-an-error": (
        LibsvmParseError, "line 822: non-numeric label 'bad'", 822),
    "utf8-non-ascii": (LibsvmParseError, "line 2: '_' or a non-ASCII character in the line", 2),
    "parse-error-before-an-undecodable-chunk": (
        LibsvmParseError, "line 4: non-numeric label 'x'", 4),
}


def _read_in_text_mode(path):
    """The data file read of load_dataset without a cache, as a text-mode
    open and parse_libsvm over its lines."""
    try:
        with open(path, "r") as fh:
            ds = parse_libsvm(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise DataSourceError(f"cannot read {path}: {err}") from err
    if ds.n == 0:
        raise DataSourceError(f"{path} holds no sample")
    return ds


def _outcome(load):
    """The dataset ``load()`` returns and its fingerprint, or the type,
    message and line number of the data error it raises."""
    try:
        return _dataset_outcome(load())
    except (LibsvmParseError, DataSourceError) as err:
        return type(err), str(err), getattr(err, "line_no", None)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("name", _FILES)
def test_a_data_file_reads_as_in_text_mode(tmp_path, name, cached):
    path = tmp_path / "data.svm"
    path.write_bytes(_FILES[name])
    want = _outcome(lambda: _read_in_text_mode(path))
    if name in _PINNED:
        assert want == _PINNED[name]
    spec = ExperimentSpec(data_path=str(path))
    args = (spec, tmp_path / "cache") if cached else (spec,)
    for _ in range(2 if cached else 1):     # a miss, then a hit or a miss again
        assert _outcome(lambda: load_dataset(*args)) == want
