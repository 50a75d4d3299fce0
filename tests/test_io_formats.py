"""Tensor container, netpbm images, config parsing, metrics CSV."""

import csv
import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lh2.errors import ConfigError, DomainError, FormatError
from lh2.io_formats import (RunConfig, emit_metrics, parse_config,
                            parse_config_text, read_pgm, read_ppm, read_tensor,
                            write_pgm, write_ppm, write_tensor)


# ---------------------------------------------------------------------------
# tensor container

def test_tensor_2x2_example(tmp_path):
    path = tmp_path / "t.lh2t"
    write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    got = read_tensor(path)
    assert got.shape == (2, 2)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])


def test_tensor_layout_bytes(tmp_path):
    path = tmp_path / "t.lh2t"
    write_tensor(path, np.array([1.5, -2.0], dtype=np.float32))
    data = path.read_bytes()
    assert data[:4] == b"LH2T"
    version, ndim = struct.unpack_from("<II", data, 4)
    assert (version, ndim) == (1, 1)
    assert struct.unpack_from("<I", data, 12) == (2,)
    assert data[16:] == np.array([1.5, -2.0], dtype="<f4").tobytes()


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (2, 2, 2, 3)])
def test_tensor_ranks(tmp_path, shape):
    arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
    path = tmp_path / "t.lh2t"
    write_tensor(path, arr)
    np.testing.assert_array_equal(read_tensor(path), arr)


def test_tensor_100_random_roundtrips_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    a_path = tmp_path / "a.lh2t"
    b_path = tmp_path / "b.lh2t"
    for _ in range(100):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(s) for s in rng.integers(1, 6, ndim))
        arr = rng.standard_normal(shape).astype(np.float32)
        write_tensor(a_path, arr)
        write_tensor(b_path, read_tensor(a_path))
        assert a_path.read_bytes() == b_path.read_bytes()


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.lh2t"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_bad_version(tmp_path):
    path = tmp_path / "t.lh2t"
    path.write_bytes(b"LH2T" + struct.pack("<II", 9, 1) + struct.pack("<I", 0))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_bad_rank(tmp_path):
    path = tmp_path / "t.lh2t"
    path.write_bytes(b"LH2T" + struct.pack("<II", 1, 5) + b"\x00" * 20)
    with pytest.raises(FormatError, match="tensor rank 5 outside"):
        read_tensor(path)
    with pytest.raises(FormatError, match="tensor rank 5 outside"):
        write_tensor(path, np.zeros((1, 1, 1, 1, 1)))


def test_tensor_truncations(tmp_path):
    path = tmp_path / "t.lh2t"
    write_tensor(path, np.arange(6, dtype=np.float32).reshape(2, 3))
    whole = path.read_bytes()
    for cut, message in ((6, "header truncated"), (14, "dims truncated"),
                         (len(whole) - 3, "payload needs 24 bytes, got 21")):
        path.write_bytes(whole[:cut])
        with pytest.raises(FormatError, match=message):
            read_tensor(path)


@pytest.mark.parametrize("dim, message", [
    (65536, "payload needs 7.379e+19 bytes, got 0"),             # 2^64 wraps to 0
    (2 ** 32 - 1, "payload needs 1.361e+39 bytes, got 12")],     # wraps negative
    ids=["wraps_to_zero", "wraps_negative"])
def test_tensor_dims_whose_product_wraps_int64_need_their_exact_payload(tmp_path, dim,
                                                                        message):
    path = tmp_path / "t.lh2t"
    payload = b"" if dim == 65536 else b"\x00" * 12      # a 40-byte file
    path.write_bytes(b"LH2T" + struct.pack("<II", 1, 4) + struct.pack("<4I", *[dim] * 4)
                     + payload)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_tensor(path)


def test_tensor_trailing_bytes(tmp_path):
    path = tmp_path / "t.lh2t"
    write_tensor(path, np.zeros(3, dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        read_tensor(path)


# ---------------------------------------------------------------------------
# PGM / PPM

def test_pgm_constant_depth_degenerate_range(tmp_path):
    path = tmp_path / "d.pgm"
    write_pgm(np.full((2, 2), 1.0), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n# range 1 1\n2 2\n65535\n")
    assert data[-8:] == b"\x00" * 8                    # all pixels quantize to 0
    np.testing.assert_array_equal(read_pgm(path), np.ones((2, 2)))


def test_pgm_quantization_bound(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "d.pgm"
    for _ in range(20):
        depth = rng.uniform(0.5, 30.0, (9, 13))
        write_pgm(depth, path)
        back = read_pgm(path)
        bound = (depth.max() - depth.min()) / 65535.0
        assert np.abs(back - depth).max() <= bound + 1e-12


def test_pgm_rejects_bad_input(tmp_path):
    path = tmp_path / "d.pgm"
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2, 3)), path)
    with pytest.raises(ValueError):
        write_pgm(np.array([[1.0, np.inf]]), path)


def test_pgm_read_errors(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n1 1\n255\n\x00")            # 8-bit maxval
    with pytest.raises(FormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")      # no range comment
    with pytest.raises(FormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n# range 0 1\n2 2\n65535\n\x00\x00")
    with pytest.raises(FormatError, match="pixel data truncated"):
        read_pgm(path)


@pytest.mark.parametrize("header, pixel_bytes, message", [
    (b"-2 3", 12, "bad header token b'-2'"),
    (b"0 0", 0, "image of 0 x 0 pixels"),
    (b"-1 -1", 2, "bad header token b'-1'"),
    (b"1" * 5000 + b" 3", 12, r"b'11111111111111111111'\.\.\. \(5000 bytes\)"),
    (b"2 3", 13, "1 trailing bytes after the pixel data"),
], ids=["negative_width", "zero_size", "negative_size", "long_token", "trailing_bytes"])
def test_pgm_header_faults_are_short_format_errors(tmp_path, header, pixel_bytes, message):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n# range 1 2\n" + header + b"\n65535\n" + b"\x00" * pixel_bytes)
    with pytest.raises(FormatError, match=message) as err:
        read_pgm(path)
    assert len(str(err.value)) <= 120


def test_netpbm_long_range_and_maxval_tokens_are_cut(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n# range " + b"x" * 5000 + b" 2\n2 3\n65535\n" + b"\x00" * 12)
    with pytest.raises(FormatError, match=r"bad range comment .*\(5000 bytes\) b'2'$"):
        read_pgm(path)
    path = tmp_path / "i.ppm"
    path.write_bytes(b"P6\n2 3\n" + b"9" * 4000 + b"\n" + b"\x00" * 18)
    with pytest.raises(FormatError, match=r"\(4000 bytes\)") as err:
        read_ppm(path)
    assert len(str(err.value)) <= 120


def test_ppm_read_errors(tmp_path):
    path = tmp_path / "i.ppm"
    write_ppm(np.zeros((2, 3, 3)), path)
    whole = path.read_bytes()
    for data, message in ((whole + b"\x00\x00", "2 trailing bytes after the pixel data"),
                          (whole[:-1], "pixel data truncated"),
                          (whole.replace(b"3 2", b"3 0"), "image of 3 x 0 pixels"),
                          (whole.replace(b"3 2", b"3 +2"), "bad header token b'\\+2'"),
                          (whole.replace(b"255", b"65535"), "expected maxval 255")):
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            read_ppm(path)


def test_ppm_roundtrip_bound(tmp_path):
    rng = np.random.default_rng(12)
    img = rng.uniform(0.0, 1.0, (6, 7, 3))
    path = tmp_path / "i.ppm"
    write_ppm(img, path)
    back = read_ppm(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12


def test_ppm_shape_error(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(np.zeros((4, 4)), tmp_path / "i.ppm")


# ---------------------------------------------------------------------------
# config

def test_config_defaults():
    cfg = RunConfig()
    assert (cfg.seed, cfg.C, cfg.d, cfg.n) == (0, 64, 512, 256)
    assert cfg.tau == 1.0
    assert cfg.margin_coeff == 0.35 and cfg.mu_norm_init == 20.0
    assert cfg.lambda_sns == 0.0


def test_config_parse_types_and_comments():
    cfg = parse_config_text(
        "# leading comment\n"
        "\n"
        "C = 10\n"
        "lr = 0.25   # trailing comment\n"
        "epochs = 7\n")
    assert cfg.C == 10 and type(cfg.C) is int
    assert cfg.lr == 0.25
    assert cfg.epochs == 7 and type(cfg.epochs) is int


def test_config_order_independent():
    a = parse_config_text("C = 5\nd = 8\nlr = 0.5\n")
    b = parse_config_text("lr = 0.5\nC = 5\nd = 8\n")
    assert a == b


def test_config_unknown_key_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config_text("C = 5\nbogus = 1\n")
    assert err.value.line == 2
    assert "bogus" in str(err.value)


def test_config_sns_enabled_is_an_unknown_key():
    # the sns term runs when lambda_sns > 0; there is no separate switch
    with pytest.raises(ConfigError, match="line 1: unknown key 'sns_enabled'"):
        parse_config_text("sns_enabled = yes\n")


def test_config_mid_strict_mode_is_an_unknown_key():
    # every sample's positive cosine feeds the epoch mid; there is no switch
    with pytest.raises(ConfigError, match="line 2: unknown key 'mid_strict_mode'"):
        parse_config_text("C = 5\nmid_strict_mode = yes\n")


def test_config_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("C = 5\n\nC = 6\n")
    assert err.value.line == 3


def test_config_bad_value_and_missing_equals():
    with pytest.raises(ConfigError) as err:
        parse_config_text("epochs = soon\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError):
        parse_config_text("epochs 3\n")
    with pytest.raises(ConfigError, match="line 1: bad value for 'C'"):
        parse_config_text("C = 2.5\n")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nepochs = 2\n", encoding="utf-8")
    cfg = parse_config(path)
    assert cfg == dataclasses.replace(RunConfig(), seed=3, epochs=2)


@given(st.permutations(["C = 7", "d = 9", "tau = 2.0", "epochs = 4"]))
def test_config_any_line_order(lines):
    cfg = parse_config_text("\n".join(lines))
    assert (cfg.C, cfg.d, cfg.tau, cfg.epochs) == (7, 9, 2.0, 4)


# ---------------------------------------------------------------------------
# metrics CSV

def test_emit_metrics_example(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics([{"step": 1, "loss": 0.5}], path)
    assert path.read_text() == "step,loss\n1,0.5\n"


def test_emit_metrics_empty_variants(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics([], path)                             # no schema to emit
    assert path.read_text() == ""
    emit_metrics([{"step": 1}], path)
    emit_metrics(iter(()), path)                       # any empty iterable truncates
    assert path.read_text() == ""


def test_emit_metrics_formatting(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics([{"x": 0.123456789123, "ok": True, "k": np.int64(7)}], path)
    assert path.read_text() == "x,ok,k\n0.123456789,1,7\n"
    # a column may change type from row to row; numpy scalars print as the
    # Python numbers they hold
    emit_metrics([{"x": 3, "ok": np.True_, "k": "a,b"},
                  {"x": np.float32(0.1), "ok": False, "k": None},
                  {"x": np.float64(-1 / 3), "ok": np.uint8(200), "k": np.nan},
                  {"x": 2 ** 70, "ok": np.int32(-2), "k": 1e-300}], path)
    assert path.read_text() == ("x,ok,k\n3,1,a,b\n0.100000001,0,None\n"
                                "-0.333333333,200,nan\n1180591620717411303424,-2,1e-300\n")


def test_emit_metrics_schema_error(tmp_path):
    with pytest.raises(DomainError, match=r"record 1 keys \['b'\] != header \['a'\]"):
        emit_metrics([{"a": 1}, {"b": 2}], tmp_path / "m.csv")
    with pytest.raises(DomainError, match=r"record 1 keys \['a'\] != header \['a', 'b'\]"):
        emit_metrics([{"a": 1, "b": 2}, {"a": 3}], tmp_path / "m.csv")


def test_emit_metrics_10k_records(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics([{"step": i, "loss": 1.0 / (i + 1)} for i in range(10_000)], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10_000
    assert rows[0] == {"step": "0", "loss": "1"}
    assert float(rows[-1]["loss"]) == pytest.approx(1.0 / 10_000)
