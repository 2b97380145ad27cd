"""Minimal NPY v1.0 reader/writer over numpy.lib.format, the JSON reader, and
the two file rules: bulk inputs are mapped, and every output is replaced.

Only the subset this pipeline exchanges is supported: C-order arrays of
little-endian float32, float64 or complex64. Anything else (v2.0 headers,
Fortran order, other dtypes) is rejected with a specific message rather
than silently coerced. numpy.lib.format reads and writes the magic string
and the header; the checks on what a header declares are this module's.

Bulk inputs are mapped read-only, not read (map_readonly). A read past the
end of a mapped file truncated under it kills the process (SIGBUS), so every
output is written beside its target and renamed over it (replace_file): a
mapping of the old file keeps the old inode and its bytes.

Every JSON input (meta.json, --config, a checkpoint header) is one object,
read by read_json_object: strict UTF-8 (json.loads would take UTF-16 bytes
too), then json.loads; any failure, deep nesting included, is a typed error.
json_is checks each value's type, and a bool is never a number.
"""

import json
import math
import os
import tokenize
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .errors import DataFormatError

SUPPORTED_DESCRS = ("<f4", "<f8", "<c8")


def map_readonly(path, dtype, count, offset=0, error=DataFormatError):
    """count values of dtype at byte offset of path, which the caller has checked holds
    them, as a read-only np.memmap; none is made for count 0 (mmap refuses an empty file).
    An OSError raises error, the caller's CsilocError."""
    if count == 0:
        return np.frombuffer(b"", dtype=dtype)
    try:
        return np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=(count,))
    except OSError as e:
        raise error(f"{path}: cannot map: {e.strerror or e}") from e


def tmp_sibling(path):
    """The file replace_file writes before it renames it over path."""
    return Path(f"{path}.tmp")


@contextmanager
def replace_file(path):
    """A binary file, tmp_sibling(path), renamed over path when the block ends without
    error: a failed or killed write leaves the old file whole. An OSError from the open,
    the block's writes or the rename is raised again as an OSError that names path."""
    tmp = tmp_sibling(path)
    try:
        with open(tmp, "wb") as f:
            yield f
        tmp.replace(path)
    except OSError as e:
        raise OSError(f"{path}: cannot write: {e.strerror or e}") from e
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, value):
    """value as JSON indented by two, keys sorted, and a final newline, replacing path."""
    with replace_file(path) as f:
        f.write(json.dumps(value, indent=2, sort_keys=True).encode() + b"\n")


def read_json_object(path, error, what="JSON", blob=None):
    """The JSON object in the file at path, or in blob, bytes read from it. Whatever
    else the bytes hold, or an OSError, raises error (a CsilocError) naming path."""
    try:
        value = json.loads((Path(path).read_bytes() if blob is None else blob).decode("utf-8"))
    except OSError as e:
        raise error(f"{path}: cannot read: {e.strerror or e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:   # RecursionError: nested too deep
        raise error(f"{path}: malformed {what}: {e}") from e
    if not isinstance(value, dict):
        raise error(f"{path}: malformed {what}: not a JSON object")
    return value


def json_is(value, *types):
    """isinstance(value, types) for a value decoded from JSON: a bool is never a number,
    and float stands for any number, since JSON has one number type."""
    if float in types:
        types += (int,)
    return isinstance(value, types) and not isinstance(value, bool)


def read_npy(path):
    """The file's array as a read-only mapping of its payload: only the header is read."""
    try:
        with open(path, "rb") as f:
            shape, fortran, dtype = _read_header(path, f)
            offset, size = f.tell(), os.fstat(f.fileno()).st_size
    except OSError as e:
        raise DataFormatError(f"{path}: cannot read: {e.strerror or e}") from e
    if fortran:
        raise DataFormatError(f"{path}: fortran_order NPY arrays are not supported (need C order)")
    if dtype.str not in SUPPORTED_DESCRS:
        raise DataFormatError(
            f"{path}: unsupported NPY dtype {dtype.str!r}; expected one of {SUPPORTED_DESCRS}")
    # numpy lets booleans and negative values through as dimensions
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in shape):
        raise DataFormatError(f"{path}: malformed NPY shape {shape!r}")
    count = math.prod(shape)
    expected = count * dtype.itemsize
    if size - offset != expected:
        raise DataFormatError(f"{path}: NPY data size mismatch: header declares {expected} "
                              f"bytes, file holds {size - offset}")
    try:
        return map_readonly(path, dtype, count, offset).reshape(shape)
    except ValueError as e:  # over 64 dimensions, or a dimension numpy cannot index
        raise DataFormatError(f"{path}: malformed NPY shape {shape!r}: {e}") from e


def _read_header(path, f):
    """(shape, fortran_order, dtype) of the NPY v1.0 header at the start of f."""
    try:
        version = npy_format.read_magic(f)
    except ValueError as e:
        raise DataFormatError(f"{path}: not an NPY file: {e}") from e
    if version != (1, 0):
        raise DataFormatError(
            f"{path}: unsupported NPY version {version[0]}.{version[1]}; only version 1.0 is supported")
    try:
        # an invalid escape such as '\T' in the header text only warns (DeprecationWarning,
        # SyntaxWarning from Python 3.12); as errors they make it a SyntaxError on every version.
        # numpy's own deprecations (the 'a' dtype alias) then raise too, and map like the rest
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", SyntaxWarning)
            return npy_format.read_array_header_1_0(f)
    except (ValueError, TypeError, SyntaxError, RecursionError, tokenize.TokenError, Warning) as e:
        raise DataFormatError(f"{path}: malformed NPY header: {e}") from e


def write_npy(path, arr):
    arr = np.ascontiguousarray(arr)
    descr = arr.dtype.newbyteorder("<").str
    if descr not in SUPPORTED_DESCRS:
        raise DataFormatError(f"cannot write dtype {arr.dtype}; expected one of {SUPPORTED_DESCRS}")
    with replace_file(path) as f:
        npy_format.write_array(f, arr.astype(descr, copy=False), version=(1, 0), allow_pickle=False)
