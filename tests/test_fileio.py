import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seslab import FormatError, SeslabError, read_pgm, read_tensor, write_pgm, write_tensor
from seslab.cli import main
from seslab.fileio import _header, read_pgm_header, sidecar_path, write_pgm_scratch


@pytest.mark.parametrize("shape", [(500, 800), (3, 5), (1, 20000)], ids=str)
@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_scratch_covers_the_encoder_peak(rng, tmp_path, shape, maxval):
    image = rng.uniform(size=shape)
    write_pgm(tmp_path / "warm.pgm", image, maxval)  # the first call may import
    tracemalloc.start()
    try:
        write_pgm(tmp_path / "w.pgm", image, maxval)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * write_pgm_scratch(*shape, maxval)


class TestTensorFormat:
    def test_rank4_roundtrip_identical_bits(self, rng, tmp_path):
        arr = rng.standard_normal((2, 3, 4, 5))
        path = tmp_path / "tensor.f64"
        write_tensor(path, arr)
        back, meta = read_tensor(path)
        assert back.tobytes() == arr.tobytes()
        assert meta["shape"] == [2, 3, 4, 5]
        assert meta["dtype"] == "float64"
        assert meta["order"] == "row-major"

    def test_extra_sidecar_fields_preserved(self, rng, tmp_path):
        path = tmp_path / "t.f64"
        write_tensor(path, rng.uniform(size=(2, 2, 2)), extra={"note": "hello"})
        _, meta = read_tensor(path)
        assert meta["note"] == "hello"

    def test_truncated_payload_names_byte_counts(self, rng, tmp_path):
        path = tmp_path / "t.f64"
        write_tensor(path, rng.uniform(size=(3, 4, 5)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match=r"expected 480 bytes.*got 472"):
            read_tensor(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "naked.f64"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(FormatError, match="sidecar"):
            read_tensor(path)

    def test_malformed_sidecar_json(self, rng, tmp_path):
        path = tmp_path / "t.f64"
        write_tensor(path, rng.uniform(size=(2, 2, 2)))
        sidecar_path(path).write_text("{not json")
        with pytest.raises(FormatError, match="malformed JSON"):
            read_tensor(path)

    def test_sidecar_missing_field(self, rng, tmp_path):
        path = tmp_path / "t.f64"
        write_tensor(path, rng.uniform(size=(2, 2, 2)))
        sidecar_path(path).write_text('{"shape": [2, 2, 2], "dtype": "float64"}')
        with pytest.raises(FormatError, match="order"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "sidecar, match",
        [
            ('["shape", "dtype", "order"]', "must be a JSON object, got list"),
            ("5", "must be a JSON object, got int"),
            ('{"shape": [4294967296, 4294967296], "dtype": "float64", "order": "row-major"}',
             r"expected 147573952589676412928 bytes"),
            ('{"shape": [1.7], "dtype": "float64", "order": "row-major"}', r"shape .*got \[1.7\]"),
            ('{"shape": [1.0], "dtype": "float64", "order": "row-major"}', r"shape .*got \[1.0\]"),
            ('{"shape": [true, 1], "dtype": "float64", "order": "row-major"}', r"shape .*got \[True, 1\]"),
            ('{"shape": "11", "dtype": "float64", "order": "row-major"}', r"shape .*got '11'"),
            ('{"shape": [], "dtype": "float64", "order": "row-major"}', r"shape .*got \[\]"),
            ('{"shape": [2, 0], "dtype": "float64", "order": "row-major"}', r"shape .*got \[2, 0\]"),
        ],
        ids=["list", "number", "int64-overflow", "fraction", "integral-float", "bool", "string", "empty", "zero"],
    )
    def test_bad_sidecar_is_format_error(self, tmp_path, sidecar, match):
        path = tmp_path / "t.f64"
        path.write_bytes(b"")
        sidecar_path(path).write_text(sidecar)
        with pytest.raises(FormatError, match=match):
            read_tensor(path)

    def test_sidecar_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "t.f64"
        path.write_bytes(b"\x00" * 8)
        sidecar_path(path).write_bytes(b'{"shape": [1], "dtype": "\xff"}')
        with pytest.raises(FormatError, match="malformed JSON"):
            read_tensor(path)


class TestPgm:
    def test_8bit_roundtrip_quantization_bound(self, rng, tmp_path):
        image = rng.uniform(size=(9, 13))
        path = tmp_path / "img.pgm"
        write_pgm(path, image, maxval=255)
        back = read_pgm(path)
        assert back.shape == image.shape
        assert np.abs(back - image).max() <= 1.0 / 255.0

    def test_16bit_roundtrip(self, rng, tmp_path):
        image = rng.uniform(size=(6, 5))
        path = tmp_path / "img16.pgm"
        write_pgm(path, image, maxval=65535)
        back = read_pgm(path)
        assert np.abs(back - image).max() <= 1.0 / 65535.0

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(6))
        image = read_pgm(path)
        assert image.shape == (2, 3)
        assert np.all(image == 0.0)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(FormatError, match="expected 16 payload bytes.*got 10"):
            read_pgm(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n4")
        with pytest.raises(FormatError, match="truncated header"):
            read_pgm(path)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_pixels_decode_as_one_division_of_the_samples(self, rng, tmp_path, maxval):
        # The decode read_pgm has always had; the header parse is split out of it.
        dtype = ">u2" if maxval > 255 else "u1"
        samples = rng.integers(0, maxval + 1, size=(7, 11)).astype(dtype).tobytes()
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n11 # width\n7\n# maxval next\n%d\n" % maxval + samples)
        expected = np.frombuffer(samples, dtype=dtype).reshape(7, 11).astype(np.float64) / maxval
        assert read_pgm(path).tobytes() == expected.tobytes()
        assert read_pgm_header(path) == (7, 11)

    @pytest.mark.parametrize(
        ("raw", "message"),
        [
            (b"P2\n2 2\n255\n0 0 0 0\n", "not a binary PGM, magic is b'P2'"),
            (b"P5\n4 4\n255\n" + bytes(10), "expected 16 payload bytes for 4x4 maxval 255, got 10"),
            (b"P5\n4", "truncated header, missing height"),
            (b"", "truncated header, missing magic"),
            (b"P5\n4 4\n255\n" + bytes(15), "expected 16 payload bytes for 4x4 maxval 255, got 15"),
            (b"P5\n4 4\n255\n" + bytes(17), "expected 16 payload bytes for 4x4 maxval 255, got 17"),
            (b"P5\n2 2\n65535\n" + bytes(7), "expected 8 payload bytes for 2x2 maxval 65535, got 7"),
            (b"P5\n4 x\n255\n", "header field height is not an integer: b'x'"),
            (b"P5\n0 4\n255\n", "invalid image size 0x4"),
            (b"P5\n4 4\n70000\n" + bytes(32), "invalid maxval 70000"),
            (b"P5\n1 1\n255", "missing whitespace before pixel payload"),
        ],
        ids=[
            "wrong-magic", "truncated-payload", "truncated-header", "empty", "one-byte-short", "one-byte-long",
            "16-bit-one-byte-short", "non-integer-field", "zero-width", "maxval", "no-whitespace",
        ],
    )
    def test_header_parse_refuses_as_read_pgm_does(self, tmp_path, raw, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        for read in (read_pgm, read_pgm_header):
            with pytest.raises(FormatError) as info:
                read(path)
            assert str(info.value) == f"{path}: {message}"

    def test_quantization_is_nearest(self, tmp_path):
        image = np.array([[0.0, 0.499 / 255, 0.501 / 255, 1.0]])
        path = tmp_path / "q.pgm"
        write_pgm(path, image)
        back = read_pgm(path)
        assert back[0, 0] == 0.0
        assert back[0, 1] == 0.0
        assert back[0, 2] == pytest.approx(1.0 / 255)
        assert back[0, 3] == 1.0
        # The bytes: the header, then each value clipped to [0, 1], scaled and
        # rounded half to even. Values below 0, above 1 and at rounding ties;
        # a transposed view is written in row-major order.
        for maxval in (1, 255, 256, 65535):
            ties = (np.arange(6) + 0.5) / maxval
            values = np.concatenate([[-1e300, -0.5, -0.0, 0.0, 1.0, 1.0 + 1e-16, 1.5, 1e300], ties, np.linspace(0, 1, 10)])
            image = values.reshape(4, 6).T
            write_pgm(path, image, maxval)
            header = f"P5\n4 6\n{maxval}\n".encode("ascii")
            payload = np.rint(np.clip(image, 0, 1) * maxval).astype(">u2" if maxval > 255 else "u1").tobytes()
            assert path.read_bytes() == header + payload

    @pytest.mark.parametrize(
        ("raw", "message"),
        [
            (b"P5 2 2 100\n\x00\x64\xc8\x65", "sample 200 at (row 1, col 0) exceeds maxval 100"),
            (b"P5 2 2 300\n\x01\x2c\x00\x00\xff\xff\x00\x00", "sample 65535 at (row 1, col 0) exceeds maxval 300"),
            (b"P5 3 1 1\n\x01\x00\x02", "sample 2 at (row 0, col 2) exceeds maxval 1"),
        ],
    )
    def test_sample_above_maxval_is_refused(self, tmp_path, capsys, raw, message):
        # Such a sample used to decode to a pixel above 1: 2.0 and 218.45 here.
        path = tmp_path / "over.pgm"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as info:
            read_pgm(path)
        assert str(info.value) == f"{path}: {message}"
        # warp builds the log-polar mapping from the header before it decodes,
        # so each frame has two columns or more and the radius floor lies inside it
        argv = ["warp", "--image", str(path), "--mode", "logpolar", "--r-min", "0.1", "--out", str(tmp_path / "w.pgm")]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
        assert f"i/o error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "w.pgm").exists()

    def test_nan_pixel_is_refused_and_infinities_clip(self, tmp_path):
        # A NaN pixel used to be written as 0, with only the cast's RuntimeWarning.
        path = tmp_path / "nan.pgm"
        image = np.zeros((3, 4))
        image[2, 1] = image[1, 3] = np.nan
        with pytest.raises(ValueError, match=r"^image pixel \(row 1, col 3\) is NaN"):
            write_pgm(path, image)
        assert not path.exists()
        write_pgm(path, np.array([[-np.inf, np.inf]]), 65535)
        assert path.read_bytes() == b"P5\n2 1\n65535\n\x00\x00\xff\xff"


# Fuzz: any header, payload or sidecar either parses or raises a SeslabError.
# Inputs are built from header-shaped pieces, so most get past the magic.
WHITESPACE = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c", b"", b"  # note\n", b"#"])
HEADER_FIELDS = (
    st.integers(min_value=-3, max_value=70000).map(lambda n: str(n).encode())
    | st.sampled_from([b"1_0", b"+4", b"0x10", b"1e2", b"\xd9\xa3", b"9" * 5000, b""])
    | st.binary(max_size=4)
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
SHAPES = st.lists(
    st.integers(min_value=-1, max_value=5) | st.sampled_from([2**32, 2**63, 2**64 + 1]) | JSON_VALUES,
    max_size=4,
)


@st.composite
def pgm_files(draw):
    fields = [draw(st.sampled_from([b"P5", b"P2", b"P6", b"p5"]) | st.binary(max_size=3))]
    fields += [draw(HEADER_FIELDS) for _ in range(3)]
    header = b"".join(draw(WHITESPACE) + field for field in fields) + draw(WHITESPACE)
    return header + draw(st.binary(max_size=64))


@st.composite
def sidecars(draw):
    meta = {"shape": draw(SHAPES | JSON_VALUES), "dtype": "float64", "order": "row-major"}
    for key in draw(st.sets(st.sampled_from(sorted(meta)), max_size=3)):
        if draw(st.booleans()):
            del meta[key]
        else:
            meta[key] = draw(JSON_VALUES)
    text = json.dumps(draw(st.just(meta) | JSON_VALUES)).encode()
    return draw(st.just(text) | st.binary(max_size=32) | st.just(text[: draw(st.integers(0, len(text)))]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _outcome(read, path):
    """What ``read`` returns for ``path``, or the message of the SeslabError it raises."""
    try:
        return read(path)
    except SeslabError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(raw=pgm_files() | st.binary(max_size=64))
@example(raw=b"P5 2 1 255\n\x00\xff")
@example(raw=b"P5\n1 1\n65535\n\x01\x00")
@example(raw=b"P5 2 1 7\n\x07\x08")
def test_read_pgm_parses_or_raises_seslab_error(fuzz_dir, raw):
    path = fuzz_dir / "fuzz.pgm"
    path.write_bytes(raw)
    # The header parse alone takes the same files and refuses them with the
    # same message; read_pgm also refuses the first sample above maxval.
    expected = _outcome(read_pgm_header, path)
    if isinstance(expected, tuple):
        height, width, maxval, offset = _header(raw, path)
        samples = np.frombuffer(raw, ">u2" if maxval > 255 else "u1", height * width, offset)
        over = np.flatnonzero(samples > maxval)
        if over.size:
            row, col = divmod(int(over[0]), width)
            expected = f"{path}: sample {samples[over[0]]} at (row {row}, col {col}) exceeds maxval {maxval}"
    assert _outcome(lambda p: read_pgm(p).shape, path) == expected


@settings(max_examples=300, deadline=None)
@given(sidecar=sidecars(), payload=st.binary(max_size=48))
@example(sidecar=b'{"shape": [2, 3], "dtype": "float64", "order": "row-major"}', payload=bytes(48))
@example(sidecar=b'{"shape": [4294967296, 4294967296], "dtype": "float64", "order": "row-major"}', payload=b"")
def test_read_tensor_parses_or_raises_seslab_error(fuzz_dir, sidecar, payload):
    path = fuzz_dir / "fuzz.f64"
    path.write_bytes(payload)
    sidecar_path(path).write_bytes(sidecar)
    _outcome(read_tensor, path)
