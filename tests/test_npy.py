import json
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from csiloc.cli import main
from csiloc.data import export_npy, generate_synthetic, import_npy, SynthConfig
from csiloc.errors import DataFormatError
from csiloc.evaluation import write_csv
from csiloc.npyio import (SUPPORTED_DESCRS, json_is, read_json_object, read_npy, tmp_sibling,
                          write_json, write_npy)


def craft_header(path, header, payload=b"", version=(1, 0)):
    """Hand-assembled NPY file around the given header text, byte by byte."""
    header = header + " " * (63 - (10 + len(header)) % 64) + "\n"
    blob = b"\x93NUMPY" + bytes(version) + len(header).to_bytes(2, "little")
    blob += header.encode("latin1") + payload
    path.write_bytes(blob)
    return path


def craft_npy(path, descr, shape, payload, version=(1, 0), fortran=False):
    header = "{'descr': '%s', 'fortran_order': %s, 'shape': %s}" % (
        descr, fortran, repr(shape))
    return craft_header(path, header, payload, version)


class TestReader:
    def test_minimal_f4_fixture(self, tmp_path):
        values = np.arange(1 * 16 * 4 * 2, dtype="<f4")
        path = craft_npy(tmp_path / "csi.npy", "<f4", (1, 16, 4, 2), values.tobytes())
        arr = read_npy(path)
        assert arr.shape == (1, 16, 4, 2) and arr.dtype == np.float32
        npt.assert_array_equal(arr.ravel(), values)

    def test_fixture_imports_as_sample(self, tmp_path):
        csi = np.arange(1 * 16 * 4 * 2, dtype="<f4")
        craft_npy(tmp_path / "csi.npy", "<f4", (1, 16, 4, 2), csi.tobytes())
        craft_npy(tmp_path / "snr.npy", "<f4", (1, 16), np.zeros(16, "<f4").tobytes())
        craft_npy(tmp_path / "pos.npy", "<f4", (1, 3), np.ones(3, "<f4").tobytes())
        ds = import_npy(tmp_path / "csi.npy", tmp_path / "snr.npy", tmp_path / "pos.npy")
        assert len(ds) == 1
        assert ds.csi[0].shape == (2, 16, 4)

    def test_complex_re_im_planes(self, tmp_path):
        h = np.array([[[1 + 2j, 3 - 4j]]], dtype="<c8")  # (1, 1, 2)
        craft_npy(tmp_path / "csi.npy", "<c8", (1, 1, 2), h.tobytes())
        craft_npy(tmp_path / "snr.npy", "<f4", (1, 1), np.zeros(1, "<f4").tobytes())
        craft_npy(tmp_path / "pos.npy", "<f4", (1, 3), np.ones(3, "<f4").tobytes())
        ds = import_npy(tmp_path / "csi.npy", tmp_path / "snr.npy", tmp_path / "pos.npy")
        npt.assert_array_equal(ds.csi[0, 0], [[1.0, 3.0]])   # Re plane
        npt.assert_array_equal(ds.csi[0, 1], [[2.0, -4.0]])  # Im plane

    def test_rejects_fortran_order(self, tmp_path):
        path = craft_npy(tmp_path / "f.npy", "<f4", (2, 2), np.zeros(4, "<f4").tobytes(),
                         fortran=True)
        with pytest.raises(DataFormatError, match="fortran_order"):
            read_npy(path)

    def test_rejects_v2_header(self, tmp_path):
        path = craft_npy(tmp_path / "v2.npy", "<f4", (2,), np.zeros(2, "<f4").tobytes(),
                         version=(2, 0))
        with pytest.raises(DataFormatError, match="version 2.0"):
            read_npy(path)

    def test_rejects_i4_dtype(self, tmp_path):
        path = craft_npy(tmp_path / "i.npy", "<i4", (2,), np.zeros(2, "<i4").tobytes())
        with pytest.raises(DataFormatError, match="dtype '<i4'"):
            read_npy(path)

    def test_distinct_messages(self, tmp_path):
        cases = [
            craft_npy(tmp_path / "a.npy", "<f4", (2, 2), np.zeros(4, "<f4").tobytes(), fortran=True),
            craft_npy(tmp_path / "b.npy", "<f4", (2,), np.zeros(2, "<f4").tobytes(), version=(2, 0)),
            craft_npy(tmp_path / "c.npy", "<i4", (2,), np.zeros(2, "<i4").tobytes()),
        ]
        messages = set()
        for path in cases:
            with pytest.raises(DataFormatError) as err:
                read_npy(path)
            messages.add(str(err.value).split(": ", 1)[1])
        assert len(messages) == 3

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "x.npy"
        path.write_bytes(b"NOTANPYFILE")
        with pytest.raises(DataFormatError, match="magic"):
            read_npy(path)

    @pytest.mark.parametrize("n", [200, 800])
    def test_maps_without_copying(self, tmp_path, n):
        """Only the header is read: the traced peak stays under 1 MB whatever n is."""
        arr = np.arange(n * 16 * 128, dtype=np.float32).view(np.complex64).reshape(n, 16, 64)
        write_npy(tmp_path / "c.npy", arr)   # 1.6 MB at n=200, 6.6 MB at n=800
        tracemalloc.start()
        try:
            back = read_npy(tmp_path / "c.npy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert not back.flags.writeable
        npt.assert_array_equal(back, arr)

    def test_rejects_truncated_payload(self, tmp_path):
        path = craft_npy(tmp_path / "t.npy", "<f4", (4,), np.zeros(3, "<f4").tobytes())
        with pytest.raises(DataFormatError, match="size mismatch"):
            read_npy(path)


# one header per way a crafted file can fail inside numpy's header parser or
# on the declared shape. Before the reader went through numpy.lib.format, the
# shape cases and deep_unary escaped as OverflowError, ValueError, TypeError or
# RecursionError, and extra_key was accepted (np.load rejects it)
SHAPE_HEADER = "{'descr': '<f4', 'fortran_order': False, 'shape': %s}"
CRAFTED_HEADERS = {
    "dim_over_int64": (SHAPE_HEADER % "(%d,)" % 2 ** 70, b""),
    "product_wraps_to_zero": (SHAPE_HEADER % "(%d, 4)" % 2 ** 62, b""),
    "bool_dim": (SHAPE_HEADER % "(True,)", bytes(4)),
    "empty_with_huge_dim": (SHAPE_HEADER % "(0, %d)" % 2 ** 70, b""),
    "rank_65": (SHAPE_HEADER % repr((1,) * 65), bytes(4)),
    "deep_unary": ("-" * 3000 + "1", b""),
    "unterminated_string": (SHAPE_HEADER % "(1,), '''", bytes(4)),
    "unindent": ("1\n  2\n 3", b""),
    "unhashable_key": ("{[1]: 2}", b""),
    "extra_key": (SHAPE_HEADER % "(1,), 'x': 0", bytes(4)),
    # the later 'descr' wins, so the text is a valid header apart from its invalid
    # escape, which Python only warns about, in a category that depends on its version
    "invalid_escape": ("{'descr': '\\T', " + (SHAPE_HEADER % "(1,)")[1:], bytes(4)),
    # numpy 2 deprecates the 'a' alias: the reader's warning filter must not let it escape
    "deprecated_dtype_alias": ("{'descr': 'a4', 'fortran_order': False, 'shape': (1,)}", bytes(4)),
}


@pytest.mark.parametrize("case", sorted(CRAFTED_HEADERS))
def test_crafted_header_typed_error(tmp_path, case):
    header, payload = CRAFTED_HEADERS[case]
    path = craft_header(tmp_path / "c.npy", header, payload)
    with pytest.raises(DataFormatError):
        read_npy(path)


@pytest.mark.parametrize("case", ["invalid_escape", "deprecated_dtype_alias"])
@pytest.mark.parametrize("action", ["ignore", "always", "error"])
def test_warning_headers_rejected_under_any_warning_filter(tmp_path, action, case):
    """The reader, not the caller's warning filters, decides that these headers are errors."""
    header, payload = CRAFTED_HEADERS[case]
    path = craft_header(tmp_path / "e.npy", header, payload)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(DataFormatError):
            read_npy(path)


def _valid_npy_blobs(tmp_path):
    blobs = []
    for i, (descr, shape) in enumerate([("<f4", (2, 3)), ("<f8", (4,)), ("<c8", (1, 2, 2)),
                                        ("<f4", (0, 5))]):
        write_npy(tmp_path / f"v{i}.npy", np.arange(np.prod(shape)).reshape(shape).astype(descr))
        blobs.append((tmp_path / f"v{i}.npy").read_bytes())
    return blobs


_HEADER_TEXT = st.text(alphabet="{}()[]',:0123456789-+.eEjLxTrueFalsNn<>fc|V \n\t\\\"#",
                       max_size=12)


@st.composite
def _mangled(draw, blobs):
    """A valid file truncated, with bytes overwritten, or with header text replaced."""
    blob = bytearray(draw(st.sampled_from(blobs)))
    end = 10 + int.from_bytes(blob[8:10], "little")
    how = draw(st.sampled_from(["truncate", "bytes", "header"]))
    if how == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if how == "bytes":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(blob)
    start = draw(st.integers(10, end - 1))
    stop = draw(st.integers(start, end))
    header = blob[10:start] + draw(_HEADER_TEXT).encode("latin1") + blob[stop:end]
    if draw(st.booleans()):  # declare the new header length, or keep the old one
        return bytes(blob[:8] + len(header).to_bytes(2, "little") + header + blob[end:])
    return bytes(blob[:10] + header + blob[end:])


def test_property_only_typed_errors(tmp_path):
    """Mangled files raise DataFormatError or read as a supported C-order array."""
    path = tmp_path / "m.npy"

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_mangled(_valid_npy_blobs(tmp_path)))
    def check(blob):
        path.write_bytes(blob)
        try:
            arr = read_npy(path)
        except DataFormatError:
            return
        assert arr.dtype.str in SUPPORTED_DESCRS and arr.flags.c_contiguous

    check()


class TestJson:
    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32"])
    def test_reader_takes_only_utf8(self, tmp_path, encoding):
        """Given bytes, json.loads would detect UTF-16 and UTF-32 and take them."""
        path = tmp_path / "x.json"
        path.write_bytes(json.dumps({"n": 1}).encode(encoding))
        with pytest.raises(DataFormatError, match="malformed JSON"):
            read_json_object(path, DataFormatError)

    @pytest.mark.parametrize("value, types, ok", [
        (True, (int,), False), (False, (float, type(None)), False), (1, (float,), True),
        (1.5, (int,), False), (None, (float, type(None)), True), (7, (int,), True), ("7", (int,), False),
    ], ids=repr)
    def test_type_check(self, value, types, ok):
        """A bool is never a number, and any number is a float."""
        assert json_is(value, *types) is ok


class TestTornWrite:
    """A text output whose writing fails part-way keeps its old bytes, and no .tmp is left:
    it is written through replace_file, never truncated in place."""

    OLD = b"old bytes\n"

    def old_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(self.OLD)
        return path

    def assert_kept(self, path):
        assert path.read_bytes() == self.OLD
        assert not tmp_sibling(path).exists()

    def test_csv_rows_fail_after_the_first(self, tmp_path):
        path = self.old_file(tmp_path, "history.csv")

        def rows():
            yield (1, 0.5, 0.25)
            raise RuntimeError("no second row")
        with pytest.raises(RuntimeError, match="no second row"):
            write_csv(path, ["epoch", "train_mde", "monitor_mde"], rows())
        self.assert_kept(path)

    def test_json_value_fails_to_encode(self, tmp_path):
        path = self.old_file(tmp_path, "meta.json")
        with pytest.raises(TypeError):
            write_json(path, {"n": 1, "frame": object()})
        self.assert_kept(path)


class TestRoundTrips:
    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<c8"])
    def test_write_then_read(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((3, 4, 5))
        if dtype == "<c8":
            arr = (arr + 1j * rng.standard_normal((3, 4, 5)))
        arr = arr.astype(dtype)
        path = tmp_path / "a.npy"
        write_npy(path, arr)
        npt.assert_array_equal(read_npy(path), arr)

    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<c8"])
    def test_numpy_reads_ours(self, tmp_path, dtype):
        arr = np.arange(12).reshape(3, 4).astype(dtype)
        path = tmp_path / "b.npy"
        write_npy(path, arr)
        npt.assert_array_equal(np.load(path), arr)

    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<c8"])
    def test_we_read_numpy(self, tmp_path, dtype):
        arr = np.arange(10).astype(dtype)
        path = tmp_path / "c.npy"
        np.save(path, arr)
        npt.assert_array_equal(read_npy(path), arr)

    def test_importer_roundtrips_canonical_export(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_samples=4, num_subcarriers=16, seed=8))
        export_npy(tmp_path, ds)
        back = import_npy(tmp_path / "csi.npy", tmp_path / "snr.npy", tmp_path / "pos.npy")
        # float32 on disk: compare at float32 resolution
        npt.assert_array_equal(back.csi, ds.csi.astype(np.float32).astype(np.float64))
        npt.assert_array_equal(back.pos, ds.pos.astype(np.float32).astype(np.float64))

    def test_inconsistent_sample_count(self, tmp_path):
        write_npy(tmp_path / "csi.npy", np.zeros((2, 1, 4), "<c8"))
        write_npy(tmp_path / "snr.npy", np.zeros((3, 1), "<f4"))
        write_npy(tmp_path / "pos.npy", np.ones((2, 3), "<f4"))
        with pytest.raises(DataFormatError, match="inconsistent sample counts"):
            import_npy(tmp_path / "csi.npy", tmp_path / "snr.npy", tmp_path / "pos.npy")

    def test_wrong_csi_rank(self, tmp_path):
        write_npy(tmp_path / "csi.npy", np.zeros((2, 4), "<c8"))
        write_npy(tmp_path / "snr.npy", np.zeros((2, 1), "<f4"))
        write_npy(tmp_path / "pos.npy", np.ones((2, 3), "<f4"))
        with pytest.raises(DataFormatError, match="complex csi"):
            import_npy(tmp_path / "csi.npy", tmp_path / "snr.npy", tmp_path / "pos.npy")

    def test_zero_samples(self, tmp_path, capsys):
        """Empty payloads are not mapped: import fails on the empty dataset, with one csiloc line."""
        write_npy(tmp_path / "csi.npy", np.zeros((0, 2, 4), "<c8"))
        write_npy(tmp_path / "snr.npy", np.zeros((0, 2), "<f4"))
        write_npy(tmp_path / "pos.npy", np.zeros((0, 3), "<f4"))
        with pytest.raises(DataFormatError, match="dataset must be nonempty"):
            import_npy(tmp_path / "csi.npy", tmp_path / "snr.npy", tmp_path / "pos.npy")
        assert main(["import", *[f"--{k}={tmp_path / k}.npy" for k in ("csi", "snr", "pos")],
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == ["csiloc import: dataset must be nonempty"]

    @pytest.mark.parametrize("shape", [(2, 0, 4), (2, 1, 0)])
    def test_zero_size_csi(self, tmp_path, capsys, shape):
        """csi with no antenna or no subcarrier fails import with one csiloc line and no traceback."""
        write_npy(tmp_path / "csi.npy", np.zeros(shape, "<c8"))
        write_npy(tmp_path / "snr.npy", np.zeros(shape[:2], "<f4"))
        write_npy(tmp_path / "pos.npy", np.ones((2, 3), "<f4"))
        with pytest.raises(DataFormatError, match="both > 0"):
            import_npy(tmp_path / "csi.npy", tmp_path / "snr.npy", tmp_path / "pos.npy")
        assert main(["import", *[f"--{k}={tmp_path / k}.npy" for k in ("csi", "snr", "pos")],
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("csiloc import: csi must be"), err
        assert not (tmp_path / "out").exists()
