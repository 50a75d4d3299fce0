"""Bit-exact file formats and run configuration shared by all modules.

Binary tensor container layout (little-endian throughout):

    magic   4 bytes  b"LH2T"
    version u32      1
    ndim    u32      1..4
    dims    ndim*u32
    payload prod(dims) float32, row-major

Depth maps go to 16-bit binary PGM (P5) with the quantization range kept in
a `# range <min> <max>` comment so the round trip is exact to
(max-min)/65535 per pixel.  Images go to 8-bit binary PPM (P6).
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

from .errors import ConfigError, DomainError, FormatError, _shown

_MAGIC = b"LH2T"
_VERSION = 1


def write_tensor(path, array) -> None:
    """Write an array (rank 1..4) as a float32 tensor file."""
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if not 1 <= arr.ndim <= 4:
        raise FormatError(f"tensor rank {arr.ndim} outside [1, 4]")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor file back as a float32 array with its declared shape."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {_MAGIC!r}")
    if len(data) < 12:
        raise FormatError("header truncated")
    version, ndim = struct.unpack_from("<II", data, 4)
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    if not 1 <= ndim <= 4:
        raise FormatError(f"tensor rank {ndim} outside [1, 4]")
    header_end = 12 + 4 * ndim
    if len(data) < header_end:
        raise FormatError("dims truncated")
    dims = struct.unpack_from(f"<{ndim}I", data, 12)
    count = math.prod(dims)         # exact: an int64 product of four dims can wrap
    payload_end = header_end + 4 * count
    if len(data) < payload_end:
        raise FormatError(f"payload needs {_shown(4 * count)} bytes, "
                          f"got {len(data) - header_end}")
    if len(data) > payload_end:
        raise FormatError(f"{len(data) - payload_end} trailing bytes after payload")
    flat = np.frombuffer(data, dtype="<f4", count=count, offset=header_end)
    return flat.reshape(dims).astype(np.float32)


def write_pgm(depth, path) -> None:
    """Write a 2-D depth array as 16-bit binary PGM with a range comment."""
    arr = np.asarray(depth, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"depth must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("depth contains non-finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi > lo:
        q = np.rint((arr - lo) / (hi - lo) * 65535.0).astype(np.uint16)
    else:
        q = np.zeros(arr.shape, dtype=np.uint16)
    h, w = arr.shape
    header = f"P5\n# range {lo:.17g} {hi:.17g}\n{w} {h}\n65535\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(q.astype(">u2").tobytes(order="C"))


def read_pgm(path) -> np.ndarray:
    """Read a 16-bit PGM written by write_pgm back to float64 depths."""
    with open(path, "rb") as fh:
        data = fh.read()
    (w, h), rng, offset = _parse_netpbm_header(data, b"P5", 65535, 2)
    if rng is None:
        raise FormatError("missing '# range <min> <max>' comment")
    lo, hi = rng
    q = np.frombuffer(data, dtype=">u2", count=w * h, offset=offset).reshape(h, w)
    return lo + q.astype(np.float64) * ((hi - lo) / 65535.0)


def write_ppm(image, path) -> None:
    """Write an H x W x 3 float image in [0, 1] as 8-bit binary PPM."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"image must be H x W x 3, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite values")
    # quantized in one float array, in place: no frame-sized temporaries
    q = np.clip(arr, 0.0, 1.0)
    q *= 255.0
    np.rint(q, out=q)
    q = q.astype(np.uint8)
    h, w, _ = arr.shape
    header = f"P6\n{w} {h}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(q.tobytes(order="C"))


def read_ppm(path) -> np.ndarray:
    """Read an 8-bit PPM back to float64 in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    (w, h), _, offset = _parse_netpbm_header(data, b"P6", 255, 3)
    q = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=offset).reshape(h, w, 3)
    return q.astype(np.float64) / 255.0


# the most digits a netpbm header integer may have; no file holds an image
# 10**20 pixels wide
_TOKEN_DIGITS = 20


def _token(token: bytes) -> str:
    """A header token for a message, cut after _TOKEN_DIGITS bytes."""
    if len(token) <= _TOKEN_DIGITS:
        return repr(token)
    return f"{token[:_TOKEN_DIGITS]!r}... ({len(token)} bytes)"


def _parse_netpbm_header(data, magic, maxval, pixel_bytes):
    """Return ((w, h), range-or-None, payload offset) for P5/P6 data whose
    header declares the given maxval, positive dimensions, and exactly
    pixel_bytes bytes of pixel data per pixel after it."""
    if data[:2] != magic:
        raise FormatError(f"bad magic {data[:2]!r}, expected {magic!r}")
    pos = 2
    tokens = []
    rng = None
    while len(tokens) < 3:
        if pos >= len(data):
            raise FormatError("header truncated")
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise FormatError("unterminated comment")
            comment = data[pos + 1:end].split()
            if len(comment) == 3 and comment[0] == b"range":
                try:
                    rng = (float(comment[1]), float(comment[2]))
                except ValueError as exc:
                    raise FormatError(f"bad range comment {_token(comment[1])} "
                                      f"{_token(comment[2])}") from exc
            pos = end + 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            token = data[pos:end]
            if not (token.isdigit() and len(token) <= _TOKEN_DIGITS):
                raise FormatError(f"bad header token {_token(token)}, expected an unsigned "
                                  f"integer of at most {_TOKEN_DIGITS} digits")
            tokens.append(int(token))
            pos = end
    w, h, got = tokens
    if got != maxval:
        raise FormatError(f"expected maxval {maxval}, got {got}")
    if w < 1 or h < 1:
        raise FormatError(f"image of {w} x {h} pixels, expected at least 1 x 1")
    # single whitespace byte separates the maxval token from pixel data
    offset = pos + 1
    extra = len(data) - offset - w * h * pixel_bytes
    if extra < 0:
        raise FormatError("pixel data truncated")
    if extra > 0:
        raise FormatError(f"{extra} trailing bytes after the pixel data")
    return (w, h), rng, offset


# cap on the elements of any one array a run allocates, and on a render's
# input pixels x dilation cells
MAX_WORK = 2 ** 24

# elements of one block of row-wise work: 512 KB of float64, which stays in
# cache between the passes over it
_BLOCK = 2 ** 16


def _row_blocks(n: int, width: int):
    """Slices of n rows of the given width, one block of row-wise work each:
    at most _BLOCK and MAX_WORK elements, and at least one row."""
    rows = max(1, min(MAX_WORK, _BLOCK) // width)
    for lo in range(0, n, rows):
        yield slice(lo, min(lo + rows, n))


@dataclasses.dataclass
class RunConfig:
    """Flat configuration for the training harness and loss stack.

    Every key has the documented default below; a config file may override
    any subset with `key = value` lines (`#` starts a comment).  Unknown or
    duplicate keys are rejected with their line number.  However it is made
    (parsed, built or by dataclasses.replace), every value must be finite
    and in its range in the one table, _RANGES; cos_min <= cos_max, and no
    array of the run may hold more than MAX_WORK elements.  Each failure is
    a ConfigError naming the keys (and, in a file, the line).
    """

    seed: int = 0
    # synthetic dataset
    C: int = 64                      # number of classes / proxies
    d: int = 512                     # feature dimension
    n: int = 256                     # vMF dimension: has no effect on train
    d_in: int = 64                   # raw input dimension before the linear embedder
    samples_per_class: int = 500
    noise_angle_deg: float = 10.0    # angular noise around each class direction
    norm_logmean: float = 3.0        # log-normal feature-norm model (quality signal)
    norm_logstd: float = 0.25
    # optimizer
    epochs: int = 20
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    lr_halve_every: int = 2          # halve lr every this many epochs
    # margin softmax
    tau: float = 1.0
    margin_coeff: float = 0.35       # m = coeff * EMA(||z||)
    ema_alpha: float = 0.1           # weight of the current batch mean in the EMA
    mu_norm_init: float = 20.0
    # proxy regularizers
    lambda_pps: float = 5.0
    lambda_pns: float = 20.0
    lambda_pp: float = 150.0
    lambda_sns: float = 0.0          # the sns term runs when positive
    cos_min: float = 0.5
    cos_max: float = 0.9

    def __post_init__(self):
        for key in _CONFIG_FIELDS:
            try:
                _check_value(key, getattr(self, key))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        if self.cos_min > self.cos_max:
            raise ConfigError(f"cos_min ({self.cos_min}) must be at most "
                              f"cos_max ({self.cos_max})")
        batch = min(self.batch_size, self.C * self.samples_per_class)
        sizes = {"C * samples_per_class * d_in": self.C * self.samples_per_class * self.d_in,
                 "C * d": self.C * self.d, "d_in * d": self.d_in * self.d,
                 "min(batch_size, C * samples_per_class) * C": batch * self.C,
                 "min(batch_size, C * samples_per_class)^2": batch * batch}
        over = [f"{keys} = {_shown(size)}" for keys, size in sizes.items() if size > MAX_WORK]
        if over:
            raise ConfigError(f"run too large: {'; '.join(over)}, over the cap of "
                              f"{MAX_WORK} elements per array")


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# key -> (the range in words, the test a value must pass)
_RANGES = {
    **dict.fromkeys(("seed", "noise_angle_deg", "norm_logstd", "margin_coeff", "lambda_pps",
                     "lambda_pns", "lambda_pp", "lambda_sns"), ("non-negative", lambda v: v >= 0)),
    **dict.fromkeys(("C", "d", "samples_per_class", "epochs", "batch_size", "lr_halve_every"),
                    ("at least 1", lambda v: v >= 1)),
    # d_in: the angular noise needs a tangent direction at each class direction
    **dict.fromkeys(("n", "d_in"), ("at least 2", lambda v: v >= 2)),
    # ema_alpha = 0 is a legal degenerate EMA (the margin frozen at its prior)
    **dict.fromkeys(("ema_alpha", "cos_min", "cos_max"), ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)),
    **dict.fromkeys(("tau", "mu_norm_init"), ("positive", lambda v: v > 0.0)),
    "momentum": ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
}


def _check_value(key, value) -> None:
    """ValueError unless a float value is finite and value is in key's range."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    if key in _RANGES:
        words, ok = _RANGES[key]
        if not ok(value):
            raise ValueError(f"must be {words}, got {_shown(value)}")


def parse_config(path) -> RunConfig:
    """Parse a `key = value` config file into a RunConfig."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text)


def parse_config_text(text) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        values[key] = _convert(key, value, lineno)
    return RunConfig(**values)


def _convert(key, value, lineno):
    try:
        number = int(value) if _CONFIG_FIELDS[key] in (int, "int") else float(value)
        _check_value(key, number)
        return number
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno) from exc


def emit_metrics(records, path, append=False) -> None:
    """Write records (mappings with one shared key set) as CSV.

    Ints and bools are printed as str(int(v)), floats (numpy scalars too)
    with 9 significant digits, anything else as str(v); each row is one
    format template, built once per sequence of value types.  An empty
    record sequence yields an empty file.  append=True adds the rows to the
    end of the file, with the header only when the file is empty, so
    appending the record sequence piece by piece writes the same bytes as
    writing it at once.
    """
    records = list(records)
    fields = list(records[0].keys()) if records else []
    fieldset = set(fields)
    templates = {}
    lines = []
    for i, rec in enumerate(records):
        if rec.keys() != fieldset:
            raise DomainError(f"record {i} keys {sorted(rec)} != header {sorted(fieldset)}")
        values = [rec[k] for k in fields]
        kinds = tuple(map(type, values))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_field, kinds)) + "\n"
        lines.append(template.format(*values))
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        if fields and fh.tell() == 0:
            fh.write(",".join(fields) + "\n")
        fh.writelines(lines)


def _field(kind) -> str:
    """The format field of a value of type kind."""
    if issubclass(kind, (bool, np.bool_, int, np.integer)):
        return "{:d}"
    if issubclass(kind, (float, np.floating)):
        return "{:.9g}"
    return "{!s}"
