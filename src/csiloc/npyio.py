"""Minimal NPY v1.0 reader/writer over numpy.lib.format.

Only the subset this pipeline exchanges is supported: C-order arrays of
little-endian float32, float64 or complex64. Anything else (v2.0 headers,
Fortran order, other dtypes) is rejected with a specific message rather
than silently coerced. numpy.lib.format reads and writes the magic string
and the header; the checks on what a header declares are this module's.
"""

import io
import math
import tokenize
import warnings

import numpy as np
from numpy.lib import format as npy_format

from .errors import DataFormatError

SUPPORTED_DESCRS = ("<f4", "<f8", "<c8")


def read_npy(path):
    """The file's array as a read-only view of the bytes read (no copy)."""
    with open(path, "rb") as f:
        blob = f.read()
    stream = io.BytesIO(blob)
    try:
        version = npy_format.read_magic(stream)
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
            shape, fortran, dtype = npy_format.read_array_header_1_0(stream)
    except (ValueError, TypeError, SyntaxError, RecursionError, tokenize.TokenError, Warning) as e:
        raise DataFormatError(f"{path}: malformed NPY header: {e}") from e
    if fortran:
        raise DataFormatError(f"{path}: fortran_order NPY arrays are not supported (need C order)")
    if dtype.str not in SUPPORTED_DESCRS:
        raise DataFormatError(
            f"{path}: unsupported NPY dtype {dtype.str!r}; expected one of {SUPPORTED_DESCRS}")
    # numpy lets booleans and negative values through as dimensions
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in shape):
        raise DataFormatError(f"{path}: malformed NPY shape {shape!r}")
    offset = stream.tell()
    expected = math.prod(shape) * dtype.itemsize
    if len(blob) - offset != expected:
        raise DataFormatError(f"{path}: NPY data size mismatch: header declares {expected} "
                              f"bytes, file holds {len(blob) - offset}")
    try:
        return np.frombuffer(blob, dtype=dtype, offset=offset).reshape(shape)
    except ValueError as e:  # over 64 dimensions, or a dimension numpy cannot index
        raise DataFormatError(f"{path}: malformed NPY shape {shape!r}: {e}") from e


def write_npy(path, arr):
    arr = np.ascontiguousarray(arr)
    descr = arr.dtype.newbyteorder("<").str
    if descr not in SUPPORTED_DESCRS:
        raise DataFormatError(f"cannot write dtype {arr.dtype}; expected one of {SUPPORTED_DESCRS}")
    with open(path, "wb") as f:
        npy_format.write_array(f, arr.astype(descr, copy=False), version=(1, 0), allow_pickle=False)
