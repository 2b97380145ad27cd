import ast
import errno
import hashlib
import json
import struct
import tracemalloc
import types
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from csiloc import models
from csiloc.errors import CheckpointError, ShapeError
from csiloc.layers import AvgPool1xP, Conv1xK, Dense, Flatten, ReLU, ResidualUnit
from csiloc.models import (ArchConfig, DEFAULT_ARCH, MODEL_KINDS, build_model, build_tiny, count_weights,
                           load_checkpoint, save_checkpoint, weights_millions)
from csiloc.network import Network, gradient_check, mde_loss

from conftest import desk_arch


def closed_form_cnn4(f0, growth=1.5, k=7, head=1000, h=16, w=924, s=3, c_in=2):
    """Independent parameter count: conv chain + dense head, from the geometry."""
    filters = [int(np.floor(f0 * growth ** i + 0.5)) for i in range(4)]
    total, prev = 0, c_in
    for f in filters:
        total += f * prev * k + f
        prev = f
        w = (w - k) // s + 1
    total += head * (filters[-1] * h * w) + head
    total += 3 * head + 3
    return total


def closed_form_resblocks(filters, k, units, c_in):
    total, prev = 0, c_in
    for f in filters:
        total += f * prev * k + f            # entry conv
        total += units * 2 * (f * f * k + f)  # residual unit convs
        prev = f
    return total


class TestBuilders:
    def test_cnn4_structure(self):
        net = build_model("cnn4")
        convs = [l for l in net.layers if isinstance(l, Conv1xK)]
        assert [c.filters for c in convs] == [10, 15, 23, 34]
        assert net.output_shape == (3,)
        assert isinstance(net.layers[-1], Dense) and net.layers[-1].units == 3

    def test_cnn4_width_chain_any_f0(self):
        net = build_model("cnn4", dict(base_filters=1, growth=1.0), (2, 16, 924))
        shape = (2, 16, 924)
        widths = []
        for layer in net.layers:
            shape = layer.out_shape(shape)
            if isinstance(layer, Conv1xK):
                widths.append(shape[2])
        assert widths == [306, 100, 32, 9]

    def test_output_always_three(self):
        for arch in (dict(base_filters=2, kernel=3, stride=2, head_units=8),
                     dict(base_filters=5, kernel=3, stride=2, head_units=64)):
            assert build_model("cnn4", arch, (2, 4, 40)).output_shape == (3,)

    def test_width_underflow_raises(self):
        with pytest.raises(ShapeError):
            build_model("cnn4", None, (2, 16, 64))  # 64 -> 20 -> 5 -> underflow

    @pytest.mark.parametrize("layers,match", [
        ([Dense(5, 3, rng=np.random.default_rng(0)), ReLU()], "linear dense head"),
        ([Dense(5, 4, rng=np.random.default_rng(0))], "3 outputs"),
    ])
    def test_network_needs_a_three_unit_dense_head(self, layers, match):
        with pytest.raises(ShapeError, match=match):
            Network(layers, (5,))

    @pytest.mark.parametrize("shape,error,match", [
        ((2.9, 1, 3.5), TypeError, "input_shape must be integers"),
        ((2, True, 3), TypeError, "not bools"),
        ((2, 0, 3), ValueError, ">= 1"),
    ], ids=["float", "bool", "zero"])
    def test_network_rejects_malformed_input_shape(self, shape, error, match):
        """The size rule of build_model holds for a Network built directly: a float is not
        truncated to a size."""
        with pytest.raises(error, match=match):
            Network([Flatten(), Dense(6, 3)], shape)

    def test_network_needs_a_layer(self):
        with pytest.raises(ShapeError, match="at least one layer"):
            Network([], (3,))

    def test_network_input_shape_of_numpy_ints(self, tmp_path):
        """numpy integer sizes are stored as ints, so the checkpoint header holds JSON ints."""
        net = Network([Flatten(), Dense(6, 3)], np.array([2, 1, 3]))
        assert net.input_shape == (2, 1, 3) and all(type(v) is int for v in net.input_shape)
        save_checkpoint(tmp_path / "m.ckpt", net)
        assert json.loads((tmp_path / "m.ckpt").read_bytes().split(b"\n")[1])["input_shape"] == [2, 1, 3]

    def test_cnn4r_conv_counts(self):
        net = build_model("cnn4r")
        entries = [l for l in net.layers if isinstance(l, Conv1xK)]
        units = [l for l in net.layers if isinstance(l, ResidualUnit)]
        assert len(entries) == 4 and len(units) == 12
        # 1 entry + 3 units x 2 convs = 7 convs per block, 28 total
        assert len(entries) + 2 * len(units) == 28

    def test_cnn4s_has_fewer_convs_than_cnn4r(self):
        def n_convs(net):
            n = 0
            for l in net.layers:
                if isinstance(l, Conv1xK):
                    n += 1
                elif isinstance(l, ResidualUnit):
                    n += 2
            return n

        assert n_convs(build_model("cnn4s")) == 22 < n_convs(build_model("cnn4r")) == 28

    def test_cnn4s_stem_chain(self):
        net = build_model("cnn4s")
        shape = (2, 16, 924)
        widths = []
        for layer in net.layers:
            shape = layer.out_shape(shape)
            if isinstance(layer, (Conv1xK, AvgPool1xP)):
                widths.append(shape[2])
        assert widths[:2] == [459, 228]
        assert widths == [459, 228, 74, 23, 6]
        pool = [l for l in net.layers if isinstance(l, AvgPool1xP)]
        assert len(pool) == 1 and pool[0].params() == []

    def test_residual_units_preserve_shape(self):
        net = build_model("cnn4r", dict(base_filters=2, kernel=3, stride=2, head_units=8), (2, 4, 60))
        shape = (2, 4, 60)
        for layer in net.layers:
            new_shape = layer.out_shape(shape)
            if isinstance(layer, ResidualUnit):
                assert new_shape == shape
            shape = new_shape

    def test_fcnn_and_linear(self):
        lin = build_model("linear")
        assert lin.kind == "linear"
        assert count_weights(lin) == 29568 * 3 + 3 == 88707
        fc = build_model("fcnn", {"hidden": [10]})
        assert fc.kind == "fcnn"
        assert count_weights(fc) == 29568 * 10 + 10 + 10 * 3 + 3 == 295723

    def test_linear_is_exact_linear_map(self):
        lin = build_model("linear", {"seed": 5}, (2, 2, 8))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 2, 8))
        f0 = lin.forward(np.zeros((1, 2, 2, 8)))
        a = 1.75
        npt.assert_allclose(lin.forward(a * x) - f0, a * (lin.forward(x) - f0), rtol=1e-12)

    def test_nondecreasing_filter_validation(self):
        with pytest.raises(ValueError):
            ArchConfig(base_filters=4, growth=0.5).filter_counts()
        with pytest.raises(ValueError):
            ArchConfig(base_filters=0).filter_counts()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_model("cnn9")

    @pytest.mark.parametrize("kind", ["cnn4r", "cnn4s"])
    def test_partial_arch_lies_over_the_kinds_defaults(self, kind):
        partial = {"kernel": 3, "stride": 2, "head_units": 8, "residual_units_per_block": 1}
        a = build_model(kind, partial, (2, 4, 128))
        b = build_model(kind, models._merged_arch(kind, partial), (2, 4, 128))
        assert [l.describe() for l in a.layers] == [l.describe() for l in b.layers]
        assert a.arch == b.arch and a.arch["base_filters"] == DEFAULT_ARCH[kind].base_filters


def test_no_import_inside_a_function():
    """Every src/csiloc module imports at module level only, so no import cycle
    is hidden inside a function."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(models.__file__).parent.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def _pool_uses(node, function=None):
    """(use, innermost function) for each `_POOL.submit` (or `x._POOL.submit`),
    ThreadPoolExecutor call and concurrent.futures import under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if (isinstance(node, ast.Attribute) and node.attr == "submit"
            and "_POOL" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))):
        yield "submit", function
    if isinstance(node, ast.Call) and "ThreadPoolExecutor" in (getattr(node.func, "id", None),
                                                               getattr(node.func, "attr", None)):
        yield "executor", function
    if (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("concurrent")
            or isinstance(node, ast.Import) and any(a.name.startswith("concurrent") for a in node.names)):
        yield "import", function
    for child in ast.iter_child_nodes(node):
        yield from _pool_uses(child, function)


def test_pool_submits_only_in_fan_out():
    """layers._POOL is the one executor and layers._fan_out the one place work goes
    to it, so parallel work has one implementation and no second copy of its
    run-first, cancel-and-run-the-rest loop can come back: src/csiloc imports
    concurrent.futures and calls ThreadPoolExecutor only at layers' module level."""
    found = [(path.name, use, function) for path in sorted(Path(models.__file__).parent.glob("*.py"))
             for use, function in _pool_uses(ast.parse(path.read_text()))]
    assert found == [("layers.py", "import", None), ("layers.py", "executor", None),
                     ("layers.py", "submit", "_fan_out")]


def _file_uses(node, function=None):
    """(use, innermost function) for each json.loads, write_text or write_bytes call, and
    each open call whose mode is not a read-only constant, under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("loads", "write_text", "write_bytes"):
            yield name, function
        if name == "open":
            # open(path, mode) or path.open(mode); no mode reads
            at = 0 if isinstance(func, ast.Attribute) else 1
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                yield "open to write", function
    for child in ast.iter_child_nodes(node):
        yield from _file_uses(child, function)


def test_one_json_reader_and_one_file_writer():
    """npyio.read_json_object is the one place src/csiloc parses JSON, and npyio.replace_file
    the one place it opens a file to write: every output is renamed over its target."""
    found = [(path.name, use, function) for path in sorted(Path(models.__file__).parent.glob("*.py"))
             for use, function in _file_uses(ast.parse(path.read_text()))]
    assert found == [("npyio.py", "open to write", "replace_file"), ("npyio.py", "loads", "read_json_object")]


def test_every_import_is_used():
    """Each name a src/csiloc module imports is used in that module. models imports
    count_weights only to re-export it beside build_model, for the package and evaluation;
    evaluation imports _threads only for perfbench, which reads csiloc.evaluation._threads."""
    re_exports = {("models.py", "count_weights"), ("evaluation.py", "_threads")}
    unused = []
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names
                   for name in [alias.asname or alias.name.split(".")[0]]
                   if name not in used and (path.name, name) not in re_exports]
    assert unused == []


class TestResidualUnitShape:
    """A residual unit's shape is its two same-padded convs' shape."""

    @pytest.mark.parametrize("channels", [1, 3, 5])
    def test_wrong_channel_count_raises(self, channels):
        with pytest.raises(ShapeError):
            ResidualUnit(4, 3).out_shape((channels, 2, 9))
        with pytest.raises(ShapeError):
            Network([ResidualUnit(4, 3), Flatten(), Dense(4 * 2 * 9, 3)], (channels, 2, 9))
        Network([ResidualUnit(4, 3), Flatten(), Dense(4 * 2 * 9, 3)], (4, 2, 9))

    @pytest.mark.parametrize("kernel", range(1, 9))
    def test_same_padding_keeps_shape(self, kernel):
        unit = ResidualUnit(2, kernel)
        for width in [w for w in (1, kernel - 1, kernel, 2 * kernel + 1, 64) if w > 0]:
            assert unit.out_shape((2, 3, width)) == (2, 3, width)


@pytest.mark.parametrize("first", [[], [AvgPool1xP(2, 1)]], ids=["flatten", "avgpool"])
def test_flat_input_to_a_feature_map_layer_raises_shape_error(first):
    """A (C, H, W) layer given a per-sample shape of another rank fails in the build's
    shape walk with ShapeError, as conv and dense do, not with an unpacking ValueError."""
    with pytest.raises(ShapeError, match=r"expects \(C,H,W\)"):
        Network([*first, Flatten(), Dense(6, 3)], (2, 3))


class TestWeightCounts:
    def test_cnn4_frozen(self):
        net = build_model("cnn4", dict(base_filters=10))
        assert count_weights(net) == 4909164 == closed_form_cnn4(10)

    def test_cnn4r_frozen(self):
        net = build_model("cnn4r")
        expect = (closed_form_resblocks([21, 32, 47, 71], 7, 3, 2)
                  + 1000 * (71 * 16 * 9) + 1000 + 3003)
        assert count_weights(net) == 10634115 == expect

    def test_cnn4s_frozen(self):
        net = build_model("cnn4s")
        expect = (45 * 2 * 7 + 45
                  + closed_form_resblocks([68, 101, 152], 7, 3, 45)
                  + 1000 * (152 * 16 * 6) + 1000 + 3003)
        assert count_weights(net) == 16368903 == expect

    def test_published_bands(self):
        for kind, target in (("cnn4", 5.3e6), ("cnn4r", 10.8e6), ("cnn4s", 16.3e6)):
            net = build_model(kind, None)
            assert abs(count_weights(net) - target) <= 0.15 * target

    def test_two_code_paths_agree(self):
        for net in (build_model("cnn4"), build_model("cnn4r"), build_model("cnn4s"),
                    build_model("linear"), build_model("fcnn", {"hidden": [10]})):
            assert count_weights(net) == sum(p.size for p in net.params())

    @pytest.mark.parametrize("kind", sorted(models.MODEL_KINDS))
    def test_count_without_building(self, kind):
        """The loader's pre-build count equals count_weights of what build_model builds."""
        cases = [({}, models.DEFAULT_INPUT_SHAPE)]
        if kind in DEFAULT_ARCH:
            archs = [DESK_ARCH, {"base_filters": 2, "kernel": 3, "stride": 1, "head_units": 16},
                     {"base_filters": 3, "growth": 1.2, "kernel": 2, "stride": 2,
                      "residual_units_per_block": 0, "head_units": 5}]
        else:
            archs = [{}] + ([{"hidden": [7, 3]}] if kind == "fcnn" else [])
        cases += [(arch, shape) for arch in archs
                  for shape in [(2, 16, 64), (2, 4, 60), (3, 5, 200)]]
        built = 0
        for arch, shape in cases:
            try:
                net = build_model(kind, arch, shape)
            except ShapeError:  # the width chain underflows: the count must say so too
                with pytest.raises(ShapeError):
                    models._weights_to_build(kind, arch, shape)
                continue
            assert models._weights_to_build(kind, arch, shape) == count_weights(net)
            built += 1
        assert built >= 3

    def test_millions_formatting(self):
        assert weights_millions(count_weights(build_model("linear"))) == 0.1


class TestForward:
    def setup_method(self):
        self.net = build_model("cnn4", dict(base_filters=2, kernel=3, stride=2,
                                         head_units=8, seed=1), (2, 4, 60))
        self.rng = np.random.default_rng(2)

    def test_duplicated_sample_duplicated_rows(self):
        x = self.rng.standard_normal((2, 4, 60))
        out = self.net.forward(np.stack([x, x, x]))
        npt.assert_array_equal(out[0], out[1])
        npt.assert_array_equal(out[0], out[2])

    def test_permutation_equivariance(self):
        batch = self.rng.standard_normal((6, 2, 4, 60))
        perm = np.random.default_rng(3).permutation(6)
        npt.assert_allclose(self.net.forward(batch[perm]), self.net.forward(batch)[perm],
                            rtol=0, atol=1e-14)

    def test_batch_vs_samplewise(self):
        batch = self.rng.standard_normal((5, 2, 4, 60))
        whole = self.net.forward(batch)
        single = np.stack([self.net.forward(s[None])[0] for s in batch])
        npt.assert_allclose(whole, single, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            self.net.forward(np.zeros((1, 2, 4, 61)))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = build_model("cnn4r", dict(base_filters=2, kernel=3, stride=2, head_units=8, seed=9), (2, 4, 60))
        b = build_model("cnn4r", dict(base_filters=2, kernel=3, stride=2, head_units=8, seed=9), (2, 4, 60))
        for pa, pb in zip(a.params(), b.params()):
            npt.assert_array_equal(pa.value, pb.value)

    def test_different_seed_differs(self):
        a = build_model("cnn4", dict(base_filters=2, kernel=3, stride=2, head_units=8, seed=1), (2, 4, 60))
        b = build_model("cnn4", dict(base_filters=2, kernel=3, stride=2, head_units=8, seed=2), (2, 4, 60))
        assert any((pa.value != pb.value).any() for pa, pb in zip(a.params(), b.params()))


class TestGradientCheck:
    def test_single_dense_mde(self):
        rng = np.random.default_rng(30)
        d = Dense(5, 3, rng=rng)
        net = Network([d], (5,))
        x = rng.standard_normal((1, 5))
        target = rng.uniform(1.0, 2.0, (1, 3))
        assert gradient_check(net, x, target).max_rel_err < 1e-5

    def test_miniature_two_block_cnn4r(self):
        rng = np.random.default_rng(31)
        cfg = ArchConfig(base_filters=2, kernel=3, stride=2, head_units=8, seed=31)
        layers = []
        shape = (2, 2, 20)
        from csiloc.models import _conv_stage, _dense_chain
        units = cfg.residual_units_per_block
        shape = _conv_stage(layers, shape, "block1", 2, cfg.stride, cfg.kernel, rng, units)
        shape = _conv_stage(layers, shape, "block2", 3, cfg.stride, cfg.kernel, rng, units)
        layers += _dense_chain(int(np.prod(shape)), [("head", 8)], rng)
        net = Network(layers, (2, 2, 20), kind="mini")
        for p in net.params():
            p.value += rng.uniform(-0.2, 0.2, p.value.shape)
        x = rng.standard_normal((1, 2, 2, 20))
        target = rng.uniform(1.0, 2.0, (1, 3))
        assert gradient_check(net, x, target).max_rel_err < 1e-4

    def test_tiny_cnn4_rig(self):
        net, x, target = build_tiny("cnn4")
        assert gradient_check(net, x, target).max_rel_err < 1e-4


def _residual_first():
    """A network whose first layer with parameters is a residual unit."""
    rng = np.random.default_rng(32)
    net = Network([ReLU(), ResidualUnit(2, 3, rng=rng), Flatten(), Dense(2 * 2 * 9, 3, rng=rng)], (2, 2, 9))
    for p in net.params():
        p.value += rng.uniform(-0.2, 0.2, p.value.shape)
    return net, rng.standard_normal((2, 2, 2, 9)), rng.uniform(1.0, 3.0, (2, 3))


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS) + ["residual_first"])
def test_backward_skips_only_the_input_gradient(kind):
    """Network.backward computes no gradient for the batch, and every parameter
    gets the gradient a layer-by-layer backward that does compute it gives."""
    net, x, target = _residual_first() if kind == "residual_first" else build_tiny(kind)
    tape = []
    _, grad = mde_loss(net.forward(x, tape), target)
    skipped, returned = list(tape), []

    def recorded(backward):
        def run(*args, **kwargs):
            returned.append(backward(*args, **kwargs))
            return returned[-1]
        return run
    for layer in net.layers:
        layer.backward = recorded(layer.backward)
    net.zero_grads()
    assert net.backward(grad, skipped) is None and skipped == []
    # the layers before the first with parameters run no backward, and it returns nothing
    first = next(i for i, layer in enumerate(net.layers) if layer.params())
    assert len(returned) == len(net.layers) - first and returned[-1] is None
    for layer in net.layers:
        del layer.backward
    ours = [p.grad.copy() for p in net.params()]
    net.zero_grads()
    for layer in reversed(net.layers):
        grad = layer.backward(grad, tape)
    assert grad.shape == x.shape and tape == []
    for mine, p in zip(ours, net.params(), strict=True):
        npt.assert_array_equal(mine, p.grad)


def _weights_and_bias(*layers):
    return [f"{layer}.{name}" for layer in layers for name in ("weights", "bias")]


def _block_labels(b):
    units = [f"block{b}.unit{u}.conv_{c}" for u in (1, 2, 3) for c in "ab"]
    return _weights_and_bias(f"block{b}.entry", *units)


TINY_LABELS = {
    "cnn4": _weights_and_bias("conv1", "conv2", "conv3", "conv4", "head", "out"),
    "cnn4r": (_block_labels(1) + _block_labels(2) + _block_labels(3) + _block_labels(4)
              + _weights_and_bias("head", "out")),
    "cnn4s": (_weights_and_bias("stem") + _block_labels(2) + _block_labels(3) + _block_labels(4)
              + _weights_and_bias("head", "out")),
    "fcnn": _weights_and_bias("hidden1", "out"),
    "linear": _weights_and_bias("out"),
}


@pytest.mark.parametrize("kind", sorted(TINY_LABELS))
def test_named_param_labels_pinned(kind):
    net, _, _ = build_tiny(kind)
    named = net.named_params()
    assert [label for label, _ in named] == TINY_LABELS[kind]
    assert [p for _, p in named] == net.params()


# sha256 of the checkpoint header line (the describe() entries among it), taken
# from the commit where each layer class still wrote its own describe()
HEADER_SHA256 = {
    ("desk", "cnn4"): "cfd8fe673b850b58cff115736f1f2f50d605a339a12b4df02eaf5fbb2b4ad9fc",
    ("desk", "cnn4r"): "53cef6ead18712d8a1b41360d30bbdc11897ccc77a041b97786f8dfcff2039d1",
    ("tiny", "cnn4"): "0fa43fce60994d8f048c27269f5af4f5dc47f5d35e74d7663739e6ff5ad60e16",
    ("tiny", "cnn4r"): "2a6e6a287abc4b83819ef012ad3934022420232ecfa7d6e2dd45ea425cef4135",
    ("tiny", "cnn4s"): "8294a2dda34637c07a2f95c11e7a6418e09d6ed88839b82fe102fa632b612f6d",
    ("tiny", "fcnn"): "09378e9d4b87314750dfd9155f86d68f7523634c6c3ea52f743546c29a6348f0",
    ("tiny", "linear"): "637ffa7e7f69d4dc89fda0491a17458af88076660a5e001d9a76bcf875f6eba1",
    ("shipped", "cnn4"): "2d6c3c70ac51f16138efa2faddc72809b608c71a1a08d01daa9adfc52fb45dd3",
    ("shipped", "cnn4r"): "71546cc490f09643c0d8be3ed4f68e916146c91d9d9d436bcb4b491009c48650",
    ("shipped", "cnn4s"): "2ddbd794ad01ae5fb54ba0b3028ce3985b853ef126cabf9df277b02e9b5e0826",
}

# sha256 of the whole checkpoint file, initial weights included, taken from the
# commit before the three CNN kinds shared one builder: a builder that reorders
# its RNG draws changes these and no header
CHECKPOINT_SHA256 = {
    ("desk", "cnn4"): "ce876be91c705bbf681a88df117652d1b3439795cd158df7212b3cce4e841180",
    ("desk", "cnn4r"): "6e7bc9337247f3ea280bdeb2eb1c9a19dfcb39cd47ff64ebfef2c37475b976b5",
    ("tiny", "cnn4"): "d8d27c1f4a6c2b4b82f15ac232dd6b308e4b68b5b9b09440da0067aeeb3f09f0",
    ("tiny", "cnn4r"): "8c3d6bf72ff6cf69a118da9ae6e30203a10785f34f1a04ba7b5606a70cf8ef9b",
    ("tiny", "cnn4s"): "c58a89fa8746aa547584ad3deb73e83ce043d26c32a8c95ec89b25134decdb4f",
    ("tiny", "fcnn"): "dd9f41a2d6eb50664ca1df27dd512f69f7b6de33393c7b634659c14555505915",
    ("tiny", "linear"): "43482539298a720aa73bf14562a3fb59e31258f1d5797b7d42fddb0bc10b91bb",
    ("shipped", "cnn4"): "e620319716725d8f378d65ebc3f32309fc3b2aea5c291213bc467a5f9b6f147c",
    ("shipped", "cnn4r"): "e3cc32699f01a5e4e28be09f94e5528d7ba32af660aa502f3f26ce4d6c0db48c",
    ("shipped", "cnn4s"): "5fa2bc3cff8e9e5cd29209544866ca39a22ca9c496464363d6fbc256855e925e",
}

DESK_ARCH = desk_arch()


def _pinned_net(which, kind):
    if which == "tiny":
        return build_tiny(kind)[0]
    if which == "desk":
        return build_model(kind, DESK_ARCH, (2, 16, 64))
    return build_model(kind, None)


@pytest.mark.parametrize("which,kind", sorted(HEADER_SHA256))
def test_checkpoint_header_pinned(tmp_path, which, kind):
    save_checkpoint(tmp_path / "c", _pinned_net(which, kind), norm_scale=0.5)
    blob = (tmp_path / "c").read_bytes()
    header = blob[:blob.index(b"\n", len(models.CHECKPOINT_MAGIC))]
    assert hashlib.sha256(header).hexdigest() == HEADER_SHA256[which, kind]
    assert hashlib.sha256(blob).hexdigest() == CHECKPOINT_SHA256[which, kind]


class TestCheckpoint:
    def roundtrip(self, tmp_path, net, scale=2.5):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, norm_scale=scale, meta={"note": "t"})
        return path, load_checkpoint(path)

    def test_roundtrip_bit_identical(self, tmp_path):
        net = build_model("cnn4", dict(base_filters=2, kernel=3, stride=2, head_units=8, seed=4), (2, 4, 60))
        path, (loaded, scale, meta) = self.roundtrip(tmp_path, net)
        assert scale == 2.5 and meta == {"note": "t"}
        assert loaded.kind == "cnn4" and loaded.input_shape == (2, 4, 60)
        for pa, pb in zip(net.params(), loaded.params()):
            npt.assert_array_equal(pa.value, pb.value)

    def test_roundtrip_fcnn(self, tmp_path):
        net = build_model("fcnn", {"hidden": [7, 5], "seed": 3}, (2, 2, 10))
        _, (loaded, _, _) = self.roundtrip(tmp_path, net)
        assert loaded.kind == "fcnn"
        for pa, pb in zip(net.params(), loaded.params()):
            npt.assert_array_equal(pa.value, pb.value)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        """The loader builds its network with zero weights and copies every tensor in:
        it draws none of the weights it would overwrite."""
        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew weights")
        net = build_model("cnn4r", desk_arch(), (2, 16, 64))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, norm_scale=1.0)
        monkeypatch.setattr(models.np.random, "default_rng", refuse)
        loaded, _, _ = load_checkpoint(path)
        for pa, pb in zip(net.params(), loaded.params(), strict=True):
            assert pa.value.tobytes() == pb.value.tobytes()

    def test_failed_write_keeps_previous(self, tmp_path, monkeypatch):
        net, _, _ = build_tiny("cnn4r")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net, norm_scale=1.0)
        before = path.read_bytes()
        for p in net.params():
            p.value += 1.0
        packs = iter(range(len(net.params())))

        def pack(fmt, value):  # the third parameter's size field fails, mid-file
            if next(packs) == 2:
                raise OSError("no space left on device")
            return struct.pack(fmt, value)
        monkeypatch.setattr(models, "struct", types.SimpleNamespace(pack=pack))
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, net, norm_scale=2.0)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        loaded, scale, _ = load_checkpoint(path)
        assert scale == 1.0
        for pa, pb in zip(build_tiny("cnn4r")[0].params(), loaded.params()):
            npt.assert_array_equal(pa.value, pb.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTCSILOC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob, match", [(b"", "bad magic"), (b"CSILOC1\n{}", "missing header line")],
                             ids=["empty", "no header line"])
    def test_short_file(self, tmp_path, blob, match):
        path = tmp_path / "m.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_load_maps_the_file(self, tmp_path):
        """The weights are copied from a mapping of the file, not from a read copy: loading
        the shipped cnn4 (a 37.5 MB file) allocates its value, gradient and velocity, and
        nothing the size of the file."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_model("cnn4", {}, models.DEFAULT_INPUT_SHAPE), norm_scale=1.0)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * size, (peak, size)   # 4x when the file was read whole

    def test_map_failure_is_a_checkpoint_error(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_model("linear", {"seed": 0}, (2, 2, 4)), norm_scale=1.0)

        def refuse(*args, **kwargs):
            raise OSError(errno.ENODEV, "No such device")
        monkeypatch.setattr(np, "memmap", refuse)
        with pytest.raises(CheckpointError, match=r"m\.ckpt: cannot map: No such device"):
            load_checkpoint(path)

    def test_truncated_blob(self, tmp_path):
        net = build_model("linear", {"seed": 0}, (2, 2, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net, norm_scale=1.0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        net = build_model("linear", {"seed": 0}, (2, 2, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net, norm_scale=1.0)
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_count_mismatch(self, tmp_path):
        net = build_model("linear", {"seed": 0}, (2, 2, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net, norm_scale=1.0)
        blob = bytearray(path.read_bytes())
        nl = blob.index(b"\n", len(b"CSILOC1\n")) + 1
        blob[nl:nl + 8] = (99).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="elements"):
            load_checkpoint(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"CSILOC1\n{not json}\n")
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        5, [], {"arch": 5}, {"kind": "linear", "arch": [1]}, {"input_shape": 7},
        {"input_shape": [2, None, 4]}, {"kind": "fcnn", "arch": {"hidden": 5, "seed": 0}},
        {"kind": ["cnn4"]}, {"norm_scale": "1.0"}, {"norm_scale": True},
    ], ids=repr)
    def test_header_of_wrong_type(self, tmp_path, edit):
        net = build_model("linear", {"seed": 0}, (2, 2, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net, norm_scale=1.0)
        blob = path.read_bytes()
        nl = blob.index(b"\n", len(b"CSILOC1\n"))
        header = json.loads(blob[len(b"CSILOC1\n"):nl])
        header = {**header, **edit} if isinstance(edit, dict) else edit
        path.write_bytes(b"CSILOC1\n" + json.dumps(header).encode() + blob[nl:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("kind,arch", [
    ("cnn4r", {"residual_units_per_block": -2}), ("cnn4", {"kernel": 0}), ("cnn4s", {"stride": -1}),
    ("cnn4r", {"head_units": 0}), ("fcnn", {"hidden": [4, 0]}),
], ids=repr)
def test_builders_reject_sizes_below_their_least(kind, arch):
    """A negative unit count used to build a residual model with no units at all."""
    with pytest.raises(ValueError, match=">="):
        build_model(kind, arch, (2, 4, 60))


@pytest.mark.parametrize("kind,arch,shape", [
    ("cnn4", {}, (2, True, 60)), ("cnn4r", {"kernel": True}, (2, 4, 60)), ("fcnn", {"hidden": [True]}, (2, 4, 60)),
], ids=repr)
def test_builders_reject_bool_sizes(kind, arch, shape):
    """True == 1, but it is no size: the builders refuse it as the checkpoint loader does."""
    with pytest.raises(TypeError, match="not bools"):
        build_model(kind, arch, shape)


def _edited_checkpoint(tmp_path, net, edit):
    """Save net, apply edit(header) to the header JSON, write it back; return the path."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, net, norm_scale=1.0)
    blob = path.read_bytes()
    nl = blob.index(b"\n", len(b"CSILOC1\n"))
    header = json.loads(blob[len(b"CSILOC1\n"):nl])
    edit(header)
    path.write_bytes(b"CSILOC1\n" + json.dumps(header).encode() + blob[nl:])
    return path


def _rejected_in_small_memory(path, match=None):
    """load_checkpoint(path) raises CheckpointError having allocated under 1 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestCheckpointBounds:
    """Header values are checked against the declared weights before anything is built."""

    @pytest.mark.parametrize("arch", [
        {"base_filters": 1e308}, {"growth": 1e308}, {"residual_units_per_block": 10 ** 9},
        {"head_units": 10 ** 12}, {"base_filters": 10 ** 9}, {"kernel": 10 ** 9}, {"stride": 0},
        {"kernel": 3.0}, {"head_units": "16"},
        # a negative size must not cancel a huge one in the weight count
        {"head_units": -1}, {"base_filters": 10 ** 4, "head_units": -10 ** 6}, {"kernel": -3},
        {"stride": -1}, {"residual_units_per_block": -1},
        {"residual_units_per_block": 10 ** 4, "head_units": -10 ** 9},
    ], ids=repr)
    def test_arch_beyond_declared_weights(self, tmp_path, arch):
        _rejected_in_small_memory(
            _edited_checkpoint(tmp_path, build_tiny("cnn4r")[0], lambda h: h["arch"].update(arch)))

    def test_negative_seed_rejected(self, tmp_path):
        """The loader draws nothing from the header's seed, and still refuses one that
        build_model could not draw from."""
        path = _edited_checkpoint(tmp_path, build_tiny("cnn4r")[0], lambda h: h["arch"].update(seed=-1))
        with pytest.raises(CheckpointError, match="cannot rebuild model: expected non-negative integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["seed", "residual_units_per_block", "growth"])
    def test_bool_arch_value_rejected(self, tmp_path, field):
        """true in the header's arch, where a saved 1 or 1.0 would build the same layers,
        is rejected as --config rejects it: a bool is no number."""
        net = build_model("cnn4r", {**models._TINY["cnn4r"], "seed": 1, "residual_units_per_block": 1,
                                    "growth": 1.0}, models._TINY_INPUT_SHAPE)
        path = _edited_checkpoint(tmp_path, net, lambda h: h["arch"].update({field: True}))
        with pytest.raises(CheckpointError, match=f"cannot rebuild model: arch field '{field}' has the wrong type"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where,match", [("input_shape", "cannot rebuild model"),
                                             ("param_shapes", "malformed param_shapes")])
    def test_bool_size_rejected(self, tmp_path, where, match):
        """true where the tiny cnn4 has a size of 1, its antenna count or a conv's
        kernel-row dimension, is no size: the header would load if it were read as 1."""
        def edit(header):
            if where == "input_shape":
                header["input_shape"][1] = True
            else:
                header["layers"][0]["param_shapes"][0][2] = True
        net = build_model("cnn4", {**models._TINY["cnn4"], "seed": 1}, (2, 1, 60))
        assert net.layers[0].describe()["param_shapes"][0] == [2, 2, 1, 3]
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(_edited_checkpoint(tmp_path, net, edit))

    def test_negative_head_cannot_cancel_huge_convs(self, tmp_path):
        """The count is affine in head_units; a negative one cancels all but a remainder
        of the conv weights, and the header declares just that remainder."""
        arch, shape = {**models._merged_arch("cnn4r", {}), "base_filters": 10 ** 4, "kernel": 3, "stride": 2}, (2, 1, 31)
        one, two = (models._weights_to_build("cnn4r", {**arch, "head_units": h}, shape) for h in (1, 2))
        per_head, rest = two - one, 2 * one - two
        declared = rest % per_head
        header = {"kind": "cnn4r", "input_shape": list(shape),
                  "arch": {**arch, "head_units": -(rest // per_head)},
                  "layers": [{"kind": "dense", "param_shapes": [[declared]]}], "meta": {}, "norm_scale": None}
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"CSILOC1\n" + json.dumps(header).encode() + b"\n" + bytes(8 + 8 * declared))
        _rejected_in_small_memory(path)

    @pytest.mark.parametrize("edit", [
        {"arch": {"hidden": [10 ** 12], "seed": 0}},
        # widths [1, H, -2, 3] count 2H - 2H - 2 - 6 + 3 = -5 weights whatever H is
        {"arch": {"hidden": [10 ** 10, -2], "seed": 0}, "input_shape": [1, 1, 1]},
        # widths [1, H, -2, 1937, 3] count 3875 whatever H is: the tiny fcnn's declared weights
        {"arch": {"hidden": [10 ** 10, -2, 1937], "seed": 0}, "input_shape": [1, 1, 1]},
        {"arch": {"hidden": [8], "seed": 0}, "input_shape": [-2, 4, 60]},
    ], ids=repr)
    def test_hidden_units_beyond_declared_weights(self, tmp_path, edit):
        _rejected_in_small_memory(
            _edited_checkpoint(tmp_path, build_tiny("fcnn")[0], lambda h: h.update(edit)),
            match="builds|cannot rebuild")

    def test_negative_counts_cannot_balance_the_bytes(self, tmp_path):
        """param_shapes [[-9], [], [], [], []] declare -5 weights in zero bytes, the count
        the hidden widths [H, -2] give for any H: a file ending at the header is rejected."""
        header = {"kind": "fcnn", "input_shape": [1, 1, 1], "arch": {"hidden": [10 ** 10, -2], "seed": 0},
                  "layers": [{"kind": "dense", "param_shapes": [[-9], [], [], [], []]}],
                  "meta": {}, "norm_scale": None}
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"CSILOC1\n" + json.dumps(header).encode() + b"\n")
        _rejected_in_small_memory(path, match="param_shapes")

    @pytest.mark.parametrize("shapes,match", [
        ([[10 ** 6, 10 ** 6]], "truncated"), ([[1]], "trailing"), ([["8"]], "param_shapes"),
        ([[1.0]], "param_shapes"), (5, "param_shapes"), ([[-1]], "param_shapes"),
        ([[0]], "trailing"),
    ], ids=repr)
    def test_declared_shapes_must_fit_the_file(self, tmp_path, shapes, match):
        def edit(header):
            header["layers"][-1]["param_shapes"] = shapes
        path = _edited_checkpoint(tmp_path, build_tiny("linear")[0], edit)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("which,kind", [("tiny", k) for k in sorted(models.MODEL_KINDS)]
                             + [("desk", "cnn4"), ("desk", "cnn4r")])
    def test_saved_models_load(self, tmp_path, which, kind):
        net = _pinned_net(which, kind)
        save_checkpoint(tmp_path / "c", net)
        loaded, _, _ = load_checkpoint(tmp_path / "c")
        for pa, pb in zip(net.params(), loaded.params()):
            assert pa.value.tobytes() == pb.value.tobytes()


@st.composite
def _mangled_checkpoint(draw, blob):
    """A valid checkpoint truncated, with bytes overwritten, or with header text replaced."""
    blob = bytearray(blob)
    nl = blob.index(b"\n", len(b"CSILOC1\n"))
    how = draw(st.sampled_from(["truncate", "bytes", "header"]))
    if how == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if how == "bytes":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(blob)
    start = draw(st.integers(len(b"CSILOC1\n"), nl - 1))
    stop = draw(st.integers(start, min(nl, start + 8)))
    text = draw(st.text(alphabet='{}[]":,-.0123456789eE ', max_size=8)).encode()
    return bytes(blob[:start] + text + blob[stop:])


def test_property_only_checkpoint_errors(tmp_path):
    """Mangled checkpoints raise CheckpointError or load as a network."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_tiny("cnn4r")[0], norm_scale=1.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_mangled_checkpoint(path.read_bytes()))
    def check(blob):
        path.write_bytes(blob)
        try:
            net, _, _ = load_checkpoint(path)
        except CheckpointError:
            return
        assert net.output_shape == (3,)

    check()
