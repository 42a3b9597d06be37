import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from adafisher import datasets
from adafisher.config import resolve_dataset
from adafisher.datasets import (load_csv, load_idx, synth_dataset,
                                train_eval_split, write_idx)
from adafisher.errors import DataError, FormatError, InputError, SizeError


class TestIdx:
    def test_images_roundtrip(self, tmp_path):
        images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        path = tmp_path / "imgs.idx"
        write_idx(path, images, "images")
        loaded = load_idx(path, expect="images")
        assert loaded.shape == (2, 1, 3, 4)
        assert np.asarray(loaded).max() <= 1.0
        assert np.max(np.abs(loaded[:, 0] - images / 255.0)) < 1e-15

    def test_images_scaled_bit_for_bit(self, tmp_path):
        # every byte value reads as exactly the float64 of raw / 255: by rows,
        # by a slice and as a whole
        raw = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        write_idx(tmp_path / "all.idx", raw, "images")
        images = load_idx(tmp_path / "all.idx", expect="images")
        scaled = raw.astype(np.float64)[:, None] / 255.0
        rows = np.array([2, 0, 3, 1])
        for got, want in ((images[rows], scaled[rows]), (images[::-1], scaled[::-1]),
                          (np.asarray(images), scaled)):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_images_array_protocol(self, tmp_path):
        # numpy 2 passes copy= to __array__: np.array, np.asarray and a cast
        # read the bits of images[...] without a warning
        raw = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        write_idx(tmp_path / "all.idx", raw, "images")
        images = load_idx(tmp_path / "all.idx", expect="images")
        want = images[...]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got, expected in ((np.array(images), want), (np.asarray(images), want),
                                  (np.asarray(images, dtype=np.float32), want.astype(np.float32))):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)
            if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # 1.x passes no copy=
                with pytest.raises(InputError, match="without a copy"):
                    np.array(images, copy=False)

    @staticmethod
    def resident_peak(tmp_path, **limit):
        """The IDX source of 1,000 seeded 28x28 images as resolve_dataset
        returns it, and the tracemalloc peak while it loads."""
        rng = np.random.default_rng(0)
        write_idx(tmp_path / "images.idx", rng.integers(0, 256, (1000, 28, 28)), "images")
        write_idx(tmp_path / "labels.idx", rng.integers(0, 10, 1000), "labels")
        spec = {"source": "idx", "images": str(tmp_path / "images.idx"),
                "labels": str(tmp_path / "labels.idx"), **limit}
        tracemalloc.start()
        try:
            x, _ = resolve_dataset(spec, seed=0)
            return x, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_images_resident_at_one_byte_per_pixel(self, tmp_path):
        # An IDX source stays as its file's bytes until a read scales rows:
        # loading 1,000 28x28 images never holds 2 bytes per pixel.
        x, peak = self.resident_peak(tmp_path)
        assert x.shape == (1000, 1, 28, 28)
        assert peak < 2 * 1000 * 28 * 28

    def test_limited_images_keep_only_their_rows_resident(self, tmp_path):
        # A limit of 100 copies its rows' bytes, so the file's other 900 rows
        # are freed once resolve_dataset returns.
        self.resident_peak(tmp_path, limit=100)  # the modules a first call imports stay
        tracemalloc.start()
        try:
            x, y = resolve_dataset({"source": "idx", "images": str(tmp_path / "images.idx"),
                                    "labels": str(tmp_path / "labels.idx"), "limit": 100},
                                   seed=0)
            resident = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert x.shape == (100, 1, 28, 28)
        assert resident < 4 * (100 * 28 * 28 + y.nbytes)

    def test_limited_images_resident_at_one_byte_per_pixel(self, tmp_path):
        # So do the first 900 of them under a dataset limit.
        x, peak = self.resident_peak(tmp_path, limit=900)
        assert x.shape == (900, 1, 28, 28)
        assert peak < 2 * 900 * 28 * 28

    def test_limit_cuts_after_the_count_check(self, tmp_path):
        # 24 images and 20 labels do not pair up, whatever the first 10 rows hold
        write_idx(tmp_path / "images.idx", np.zeros((24, 2, 2)), "images")
        write_idx(tmp_path / "labels.idx", np.zeros(20), "labels")
        spec = {"source": "idx", "images": str(tmp_path / "images.idx"),
                "labels": str(tmp_path / "labels.idx"), "limit": 10}
        with pytest.raises(DataError, match="24 inputs but 20 labels"):
            resolve_dataset(spec, seed=0)

    def test_labels_roundtrip(self, tmp_path):
        labels = np.array([0, 3, 9, 1], dtype=np.uint8)
        path = tmp_path / "lbls.idx"
        write_idx(path, labels, "labels")
        loaded = load_idx(path, expect="labels")
        assert loaded.dtype == np.int64
        assert np.array_equal(loaded, labels)

    def test_handbuilt_bytes(self, tmp_path):
        # one 2x2 image written byte-for-byte to pin the wire format
        raw = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes([0, 255, 51, 102])
        path = tmp_path / "hand.idx"
        path.write_bytes(raw)
        loaded = load_idx(path, expect="images")
        assert np.allclose(loaded[0, 0], [[0.0, 1.0], [0.2, 0.4]])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        write_idx(path, np.zeros(3, dtype=np.uint8), "labels")
        with pytest.raises(FormatError):
            load_idx(path, expect="images")

    def test_truncated_body(self, tmp_path):
        raw = struct.pack(">II", 0x00000801, 10) + bytes(5)
        path = tmp_path / "trunc.idx"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            load_idx(path, expect="labels")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(FormatError):
            load_idx(path, expect="labels")


class TestCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        x, y = load_csv(path)
        assert np.array_equal(x, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(y, [0, 1])

    def test_header_and_label_col(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,a,b\n2,0.5,0.25\n")
        x, y = load_csv(path, {"has_header": True, "label_col": 0})
        assert np.array_equal(x, [[0.5, 0.25]])
        assert np.array_equal(y, [2])

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,oops,0\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert "row 0" in str(exc.value)
        assert "column 1" in str(exc.value)

    @pytest.mark.parametrize("label", ["1.7", "-0.5", "1e-300", "nan", "-inf", "1e30"])
    def test_non_integral_label(self, tmp_path, label):
        # 1.7 was read as class 1, -0.5 as class 0, and 1e30 ended in a bare OverflowError
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(DataError, match=f"label '{label}' at row 1, column 2 is not an int64"):
            load_csv(path)

    def test_integral_float_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,2.0\n3.0,4.0,1e0\n")
        _, y = load_csv(path)
        assert np.array_equal(y, [2, 1])

    def test_label_col_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(DataError):
            load_csv(path, {"label_col": 5})

    def test_empty_after_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n")
        with pytest.raises(DataError):
            load_csv(path, {"has_header": True})

    def test_unknown_schema_key(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n")
        with pytest.raises(DataError):
            load_csv(path, {"delimiter": ";"})

    @pytest.mark.parametrize("schema, match", [
        ({"has_header": "false"}, "has_header must be True or False"),
        ({"has_header": 1}, "has_header must be True or False"),
        ({"label_col": 1.7}, "label_col must be an integer, got 1.7"),
        ({"label_col": "x"}, "label_col must be an integer"),
        ({"label_col": True}, "label_col must be an integer"),
    ], ids=["header-string", "header-int", "label-col-float", "label-col-string",
            "label-col-bool"])
    def test_schema_values_checked(self, tmp_path, schema, match):
        # "false" read as True and dropped the first data row; 1.7 read
        # labels from column 1; "x" was a bare ValueError
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        with pytest.raises(DataError, match=match):
            load_csv(path, schema)

    @pytest.mark.parametrize("schema", [[1], "x", ("has_header",)],
                             ids=["list", "string", "tuple"])
    def test_schema_must_be_a_dict(self, tmp_path, schema):
        # [1] was a bare TypeError and "x" a bare ValueError, from dict(schema)
        path = tmp_path / "d.csv"
        path.write_text("1.0,0\n")
        with pytest.raises(DataError, match="schema must be a dict, got "):
            load_csv(path, schema)

    def test_numpy_integer_label_col(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
        x, y = load_csv(path, {"label_col": np.int64(0)})
        assert np.array_equal(y, [0, 1]) and np.array_equal(x, [[1.0, 2.0], [3.0, 4.0]])


class TestSynth:
    def test_blobs_shapes_and_determinism(self):
        x1, y1 = synth_dataset("blobs", 100, seed=3, classes=4, dim=5)
        x2, y2 = synth_dataset("blobs", 100, seed=3, classes=4, dim=5)
        assert x1.shape == (100, 5)
        assert set(np.unique(y1)) <= set(range(4))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_blobs_separation_controls_difficulty(self):
        # well-separated blobs: nearest-center classification is near perfect
        x, y = synth_dataset("blobs", 400, seed=1, classes=3, dim=2,
                             sep=50.0, noise=0.5)
        centers = np.stack([x[y == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(np.linalg.norm(x[:, None] - centers[None], axis=-1), axis=1)
        assert np.mean(pred == y) > 0.99

    def test_moons_structure(self):
        x, y = synth_dataset("moons", 200, seed=2, noise=0.0)
        assert x.shape == (200, 2)
        assert np.array_equal(np.unique(y), [0, 1])
        # noiseless points sit on unit-radius arcs around their centers
        r0 = np.linalg.norm(x[y == 0], axis=1)
        r1 = np.linalg.norm(x[y == 1] - np.array([1.0, 0.5]), axis=1)
        assert np.max(np.abs(r0 - 1.0)) < 1e-12
        assert np.max(np.abs(r1 - 1.0)) < 1e-12

    def test_quadratic_is_exact_linear_map(self):
        x, y = synth_dataset("quadratic", 50, seed=4, dim=6, out_dim=3)
        a, res, _, _ = np.linalg.lstsq(x, y, rcond=None)
        assert np.max(np.abs(x @ a - y)) < 1e-10

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            synth_dataset("blobs", 0, seed=0)
        with pytest.raises(InputError):
            synth_dataset("spiral", 10, seed=0)
        with pytest.raises(InputError):
            synth_dataset("moons", 10, seed=0, classes=3)

    @pytest.mark.parametrize("kind, n, options, name", [
        ("blobs", 0, {}, "n"), ("blobs", "5", {}, "n"), ("moons", 5.0, {}, "n"),
        ("blobs", 10, {"classes": 0}, "classes"), ("blobs", 10, {"classes": 2.7}, "classes"),
        ("blobs", 10, {"dim": -1}, "dim"), ("blobs", 10, {"sep": "x"}, "sep"),
        ("blobs", 10, {"noise": "x"}, "noise"), ("moons", 10, {"noise": float("nan")}, "noise"),
        ("quadratic", 10, {"dim": True}, "dim"), ("quadratic", 10, {"out_dim": 0}, "out_dim"),
        ("quadratic", 10, {"scale": float("inf")}, "scale"), ("moons", 10, {"seed": -1}, "seed"),
    ], ids=["n-zero", "n-string", "n-float", "classes-zero", "classes-float", "dim-negative",
            "sep-string", "noise-string", "noise-nan", "dim-bool", "out-dim-zero",
            "scale-inf", "seed-negative"])
    def test_options_checked(self, kind, n, options, name):
        # classes=0 was numpy's "high <= 0", "x" and -1 bare ValueErrors, n="5"
        # a TypeError, and classes=2.7 silently 2 classes
        options.setdefault("seed", 0)
        with pytest.raises(InputError, match=f"^{name} must be "):
            synth_dataset(kind, n, **options)

    def test_numpy_options_draw_the_python_values(self):
        x, y = synth_dataset("blobs", np.int64(30), seed=np.int64(3), classes=np.int64(3),
                             dim=np.int64(2), sep=np.float64(4.0))
        x_ref, y_ref = synth_dataset("blobs", 30, seed=3, classes=3, dim=2, sep=4.0)
        assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)

    @pytest.mark.parametrize("n", [10**20, 10**9])
    def test_size_guard_rejects_before_drawing(self, monkeypatch, n):
        class NoDraws:  # a draw would try to allocate the whole dataset
            def __init__(self, seed):
                pass

        monkeypatch.setattr(np.random, "default_rng", NoDraws)
        for kind in ("blobs", "moons", "quadratic"):
            with pytest.raises(SizeError):
                synth_dataset(kind, n, seed=0)


class TestSplit:
    def test_sizes_and_partition(self):
        train, ev = train_eval_split(100, seed=0)
        assert train.shape[0] == 80 and ev.shape[0] == 20
        assert sorted(np.concatenate([train, ev])) == list(range(100))

    def test_labels_follow_features(self):
        # the same row numbers pick a row's features and its label
        x = np.arange(50.0)[:, None]
        y = np.arange(50) * 2
        train, ev = train_eval_split(50, seed=7)
        assert np.array_equal(y[train], x[train].ravel().astype(int) * 2)
        assert np.array_equal(y[ev], x[ev].ravel().astype(int) * 2)

    @pytest.mark.parametrize("n, seed, match", [
        ("5", 0, "n must be an integer >= 0, got '5'"),
        (10.5, 0, "n must be an integer >= 0, got 10.5"),
        (-1, 0, "n must be an integer >= 0, got -1"),
        (True, 0, "n must be an integer >= 0, got True"),
        (10, -1, "seed must be an integer >= 0, got -1"),
        (10, 1.5, "seed must be an integer >= 0, got 1.5"),
        (10, None, "seed must be an integer >= 0, got None"),
    ], ids=["n-string", "n-float", "n-negative", "n-bool", "seed-negative", "seed-float",
            "seed-none"])
    def test_arguments_checked(self, n, seed, match):
        # "5" was a bare TypeError, 10.5 numpy's AxisError and seed -1 numpy's ValueError
        with pytest.raises(InputError, match=match):
            train_eval_split(n, seed)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows(self, n):
        with pytest.raises(DataError, match="need at least 2 samples"):
            train_eval_split(n, 0)

    def test_deterministic_by_seed(self):
        a = train_eval_split(30, seed=5)
        b = train_eval_split(30, seed=5)
        c = train_eval_split(30, seed=6)
        assert all(np.array_equal(p, q) for p, q in zip(a, b))
        assert not np.array_equal(a[0], c[0])


@pytest.mark.parametrize("source", ["blobs", "csv"])
def test_limit_keeps_only_its_rows_resident(tmp_path, source):
    # A limit copies its rows, so the generated or parsed rest is freed: what
    # resolve_dataset leaves resident stays within a few times the rows' bytes.
    if source == "csv":
        rows = np.random.default_rng(0).normal(size=(2000, 50))
        path = tmp_path / "d.csv"
        np.savetxt(path, np.hstack([rows, np.zeros((2000, 1))]), delimiter=",")
        spec = {"source": "csv", "path": str(path), "limit": 100}
    else:
        spec = {"source": "blobs", "n": 20000, "dim": 50, "limit": 100}
    resolve_dataset(spec, seed=0)  # the modules a first call imports stay resident
    tracemalloc.start()
    try:
        x, y = resolve_dataset(spec, seed=0)
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert x.shape == (100, 50) and y.shape == (100,)
    assert resident < 4 * (x.nbytes + y.nbytes)
