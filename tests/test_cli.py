"""End-to-end command-line behavior through main(), in process."""

import contextlib
import csv
import dataclasses
import io
import math
import os
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lh2 import cli, depth_renderer, train_harness
from lh2.cli import MAX_REPEATS, main
from lh2.depth_renderer import scatter_min_render
from lh2.errors import ConfigError
from lh2.io_formats import RunConfig, parse_config, read_pgm, read_ppm, write_ppm, write_tensor
from lh2.sphere_stats import evt_estimate
from lh2.train_harness import GRADCHECK_OPS, load_checkpoint

TINY_CONFIG = """\
seed = 1
C = 8
d = 8
n = 8
d_in = 16
samples_per_class = 20
noise_angle_deg = 10.0
epochs = 3
batch_size = 32
lr = 0.05
lr_halve_every = 2
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 3
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["bogus"]) == 3
    assert "invalid choice" in capsys.readouterr().err


def test_train_subcommand(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "epochs 3" in stdout
    assert "final train accuracy" in stdout
    assert (out / "metrics.csv").is_file()
    assert (out / "checkpoints" / "final.embedder.lh2t").is_file()
    assert (out / "checkpoints" / "final.proxies.lh2t").is_file()


def test_train_seed_override_changes_run(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(tiny_config), "--out-dir", str(a)]) == 0
    assert main(["train", "--config", str(tiny_config), "--out-dir", str(b),
                 "--seed", "5"]) == 0
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()


def test_train_divergence_exit_code(tmp_path, capsys):
    # at lr 1e160 the updated proxies are finite but their row norms overflow
    for lr in ("1e308", "1e160"):
        cfg = tmp_path / f"div{lr}.cfg"
        cfg.write_text(TINY_CONFIG.replace("lr = 0.05", f"lr = {lr}"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg), "--out-dir",
                         str(tmp_path / f"run{lr}")]) == 2
        assert "diverged: non-finite update" in capsys.readouterr().err


def test_train_at_kappa_near_1e7_completes(tmp_path, capsys):
    cfg = tmp_path / "large.cfg"
    # kappa near 9e6 at the first step: the Debye branch, in bounded time
    cfg.write_text(TINY_CONFIG + "norm_logmean = 16\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert "epochs 3" in captured.out
    assert captured.err == ""
    emb, proxies = load_checkpoint(str(out / "checkpoints" / "final"))
    assert np.isfinite(emb).all() and np.isfinite(proxies.W).all()


def test_train_overflowed_feature_norm_is_a_divergence(tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    # finite features near e^700, whose row norms overflow
    cfg.write_text(TINY_CONFIG + "norm_logmean = 700\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "diverged: non-finite features" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["norm_logmean = 800", "norm_logstd = 1e6"],
                         ids=["logmean", "logstd"])
@pytest.mark.parametrize("command", ["train", "hist"])
def test_a_sample_norm_past_float_range_is_a_config_error(tmp_path, capsys, command, line):
    # the norms are checked as drawn, before a sample holds inf or a product reads it
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(TINY_CONFIG + line + "\n")
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    if command == "hist":
        rng = np.random.default_rng(0)
        stem = tmp_path / "ckpt"
        write_tensor(str(stem) + ".embedder.lh2t", rng.standard_normal((16, 8)))
        write_tensor(str(stem) + ".proxies.lh2t", np.eye(8))
        argv += ["--checkpoint", str(stem)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, *argv])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("lh2: error: norm_logmean = ")
    assert "norm_logstd = " in err and "draw a sample norm that overflows to inf" in err
    assert "RuntimeWarning" not in err and caught == []
    assert not (tmp_path / "out").exists()


def test_train_missing_config_file(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "absent.cfg"),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("lh2: error:")


def test_train_unknown_config_key(tmp_path, capsys):
    # the removed switches are unknown keys like any other
    for key in ("bogus", "sns_enabled", "mid_strict_mode"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"seed = 1\n{key} = 1\n")
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"line 2: unknown key {key!r}" in err
        assert not (tmp_path / "run").exists()


# rows that break a rule across keys, with the keys the message names
_CROSS_KEY = {("cos_min", "0.95"): ("cos_min", "cos_max"),
              ("samples_per_class", "1000000000000"): ("C", "samples_per_class", "d_in")}


@pytest.mark.parametrize("key, value", [("lr_halve_every", "0"), ("batch_size", "0"),
                                        ("lr", "nan"), ("tau", "inf"), ("n", "1"),
                                        ("epochs", "-1"), ("momentum", "-5"),
                                        ("tau", "-1"), ("margin_coeff", "-1"),
                                        ("lambda_pp", "-1"), ("ema_alpha", "2"),
                                        ("mu_norm_init", "0"), ("noise_angle_deg", "-1"),
                                        ("norm_logstd", "-1"), ("C", "0"), ("d_in", "1"),
                                        *_CROSS_KEY])
def test_train_rejects_out_of_range_value(tmp_path, capsys, key, value):
    lines = [line for line in TINY_CONFIG.splitlines() if not line.startswith(key + " ")]
    lines.append(f"{key} = {value}")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    if (key, value) in _CROSS_KEY:
        assert err.startswith("lh2: error: ")
        assert all(name in err for name in _CROSS_KEY[key, value])
    else:
        assert f"line {len(lines)}: bad value for {key!r}" in err
    assert not (tmp_path / "run").exists()


def test_train_seed_flag_is_checked_like_the_config(tmp_path, capsys):
    assert main(["train", "--out-dir", str(tmp_path / "run"), "--seed", "-1"]) == 3
    assert "bad value for 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# tiny sizes are always drawn (the defaults are a full-size run), the other
# keys may be left out; norm_logmean stays at most 8 (finite Bessel
# arguments) or reaches 16 and above (large arguments, then overflow of the
# features and, past about 709, of the drawn sample norms)
_SIZES = {
    "C": st.integers(1, 4), "d": st.integers(1, 4), "n": st.integers(2, 6),
    "d_in": st.integers(2, 4), "samples_per_class": st.integers(1, 4),
    "epochs": st.integers(1, 2), "batch_size": st.integers(1, 6),
}
_IN_RANGE = {
    "seed": st.integers(0, 3), "lr_halve_every": st.integers(1, 2),
    "lr": st.sampled_from(["0.05", "-1", "1e100", "1e308"]),
    "momentum": st.floats(0.0, 0.99), "tau": st.floats(0.01, 10.0),
    "margin_coeff": st.floats(0.0, 2.0),
    "norm_logmean": st.one_of(st.floats(-8.0, 8.0), st.floats(16.0, 1e3)),
    "norm_logstd": st.floats(0.0, 2.0), "noise_angle_deg": st.floats(0.0, 180.0),
    "ema_alpha": st.floats(0.0, 1.0), "mu_norm_init": st.floats(0.1, 50.0),
    "lambda_pps": st.floats(0.0, 10.0), "lambda_pns": st.floats(0.0, 30.0),
    "lambda_pp": st.floats(0.0, 200.0), "lambda_sns": st.floats(0.0, 200.0),
    "cos_min": st.floats(0.0, 0.5),
    "cos_max": st.floats(0.5, 1.0),
}
# one value that no other drawn value can make valid
_OUT_OF_RANGE = [
    ("C", "0"), ("d", "-1"), ("n", "1"), ("d_in", "0"), ("d_in", "1"),
    ("samples_per_class", "0"),
    ("epochs", "-1"), ("batch_size", "0"), ("lr_halve_every", "0"), ("seed", "-1"),
    ("lr", "nan"), ("momentum", "1"), ("tau", "0"), ("margin_coeff", "-1"),
    ("norm_logstd", "-1"), ("noise_angle_deg", "-1"), ("ema_alpha", "1.5"),
    ("mu_norm_init", "0"), ("lambda_pp", "-1"), ("cos_min", "1.5"),
    ("cos_max", "-0.5"),
    # the dataset alone is over the cap of 2^24 elements per array
    ("samples_per_class", "1000000000000"),
]
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("key, value", _OUT_OF_RANGE)
def test_run_config_rejects_every_out_of_range_value(key, value):
    # built directly or by dataclasses.replace, as the --seed flag does
    bad = {key: int(value) if _FIELD_TYPES[key] == "int" else float(value)}
    with pytest.raises(ConfigError, match=key):
        RunConfig(**bad)
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(RunConfig(), **bad)


@settings(max_examples=100)
@given(st.fixed_dictionaries(_SIZES, optional=_IN_RANGE),
       st.none() | st.sampled_from(_OUT_OF_RANGE))
def test_train_any_config_exits_with_a_documented_code(values, bad):
    if bad is not None:
        values[bad[0]] = bad[1]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "drawn.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in values.items())
        err = io.StringIO()
        with np.errstate(all="ignore"), contextlib.redirect_stderr(err):
            rc = main(["train", "--config", cfg, "--out-dir", os.path.join(tmp, "run")])
    if bad is None and rc == 3:
        # an in-range config fails only by a sample norm past float range,
        # which only a mean near log(max float) draws
        assert "draw a sample norm that overflows to inf" in err.getvalue()
        assert float(values.get("norm_logmean", 0.0)) > 700.0
    else:
        assert rc == 3 if bad is not None else rc in (0, 2)


def _argv(flags):
    """argv of a {flag: value} map; a tuple value gives several words, None
    leaves the flag out, and floats are written with repr ("-1e-05")."""
    words = []
    for flag, value in flags.items():
        if value is not None:
            words += [flag, *value] if isinstance(value, tuple) else [flag, value]
    return [repr(float(w)) if isinstance(w, float) else str(w) for w in words]


def _subcommand(command, valid, bad, codes):
    """(argv, the exit codes it may give) of one subcommand: every flag of
    valid drawn in range, then at most one override from bad, which must
    exit 3.  "{inputs}" stands for subcommand_inputs and "{tmp}" for a fresh
    directory."""
    return st.tuples(st.fixed_dictionaries(valid), st.none() | st.sampled_from(bad)).map(
        lambda drawn: ([command, *_argv({**drawn[0], **(drawn[1] or {})})],
                       {3} if drawn[1] else codes))


_OUT = {"--out-dir": st.just("{tmp}/out")}
_CHECKPOINT = "{inputs}/run/checkpoints/final"
_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
# tiny sizes throughout; valid flags may still meet a documented exit 3 where
# codes allows it: the minimum-angle formula breaks down, or no point of a
# custom render lands in front of the camera
_OTHER_SUBCOMMANDS = st.one_of(
    _subcommand("stats", {"--C": st.integers(2, 40), "--d": st.integers(2, 40),
                          "--trials": st.integers(0, 3), "--seed": st.integers(0, 3),
                          "--out-dir": st.none() | st.just("{tmp}/out")},
                [{"--C": 1}, {"--d": 0}, {"--d": 10 ** 400}, {"--trials": -1},
                 {"--trials": 1, "--seed": -1}],
                {0, 3}),
    _subcommand("render", {"--demo": st.just("hemisphere"), "--size": st.integers(8, 16),
                           "--frames": st.integers(1, 3),
                           "--rotations": st.tuples(*[st.floats(-360.0, 360.0)] * 3),
                           "--radius": st.integers(0, 2), **_OUT},
                [{"--size": 7}, {"--frames": 0}, {"--rotations": (math.nan, 0.0, 0.0)},
                 {"--rotations": (0.0, 360.5, 0.0)}, {"--radius": -1}],
                {0}),
    _subcommand("render", {"--depth": st.just("{inputs}/depth.lh2t"),
                           "--albedo": st.just("{inputs}/albedo.ppm"),
                           "--pose": st.builds(
                               lambda axis, angle, shift: (
                                   *depth_renderer.rotation_about_axis(axis, angle).ravel(),
                                   *shift),
                               st.integers(0, 2), st.floats(-360.0, 360.0),
                               st.tuples(*[st.floats(-20.0, 20.0)] * 3)),
                           "--fov": st.floats(1.0, 179.0), "--radius": st.integers(0, 2),
                           **_OUT},
                [{"--pose": (1.0,) * 9 + (0.0, 0.0, 0.0)},
                 {"--pose": _IDENTITY + (math.nan, 0.0, 0.0)},
                 {"--pose": _IDENTITY + (0.0, 0.0, -9.99999)},
                 {"--fov": 0.0}, {"--fov": 180.0}, {"--fov": 1e-320}, {"--radius": -1},
                 {"--albedo": "{inputs}/absent.ppm"}],
                {0, 3}),
    _subcommand("grad-check", {"--repeats": st.integers(1, 2), "--seed": st.integers(0, 3),
                               "--corrupt": st.none() | st.sampled_from(GRADCHECK_OPS)},
                [{"--repeats": 0}, {"--repeats": MAX_REPEATS + 1}, {"--seed": -1},
                 {"--corrupt": "nosuchop"}],
                {0, 1}),
    _subcommand("hist", {"--checkpoint": st.sampled_from(
                             [_CHECKPOINT, _CHECKPOINT + ".embedder.lh2t",
                              _CHECKPOINT + ".proxies.lh2t"]),
                         "--config": st.just("{inputs}/tiny.cfg"),
                         "--seed": st.none() | st.integers(0, 2), **_OUT},
                [{"--checkpoint": "{inputs}/run/checkpoints/absent"},
                 {"--config": "{inputs}/C4.cfg"}, {"--config": "{inputs}/C12.cfg"},
                 {"--config": "{inputs}/d_in32.cfg"}, {"--seed": -1}],
                {0}),
)


@pytest.fixture(scope="module")
def subcommand_inputs(tmp_path_factory):
    """An 8 x 8 depth map and albedo, a checkpoint trained once on
    TINY_CONFIG, and TINY_CONFIG with other class counts and input dims."""
    root = tmp_path_factory.mktemp("inputs")
    depth, albedo, _, _ = depth_renderer.hemisphere_scene(8)
    write_tensor(root / "depth.lh2t", depth.values)
    write_ppm(albedo, root / "albedo.ppm")
    (root / "long_token.pgm").write_bytes(b"P5\n# range 1 2\n" + b"1" * 5000 + b" 8\n65535\n")
    for name, old, new in (("tiny", "", ""), ("C4", "C = 8", "C = 4"),
                           ("C12", "C = 8", "C = 12"), ("d_in32", "d_in = 16", "d_in = 32")):
        (root / f"{name}.cfg").write_text(TINY_CONFIG.replace(old, new) if old else TINY_CONFIG)
    assert main(["train", "--config", str(root / "tiny.cfg"),
                 "--out-dir", str(root / "run")]) == 0
    return root


@settings(max_examples=150)
@given(_OTHER_SUBCOMMANDS)
def test_other_subcommands_exit_with_a_documented_code(subcommand_inputs, drawn):
    argv, codes = drawn
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.format(inputs=subcommand_inputs, tmp=tmp) for a in argv]
        rc = main(argv)
    assert rc in codes


@pytest.mark.parametrize("shift, message", [
    (("nan", "0", "0"), "t and pivot must be finite"),
    # the far side of the 8 x 8 scene lands 1e-5 in front of the camera
    (("0", "0", "-9.99999"), "--pose puts the scene too near the camera or behind it, "
                             "or --fov is too narrow for it: a canvas"),
    (("0", "0", "-20"), "no pose projects any point in front of the camera"),
], ids=["nan", "near_the_camera", "behind_the_camera"])
def test_render_custom_translation_off_the_scene_is_a_usage_error(subcommand_inputs, tmp_path,
                                                                  capsys, shift, message):
    identity = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]
    rc = main(["render", "--depth", str(subcommand_inputs / "depth.lh2t"),
               "--albedo", str(subcommand_inputs / "albedo.ppm"),
               "--pose", *identity, *shift, "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_HUGE = str(10 ** 300)       # within the float range, beyond 2**53
_DEMO = ["render", "--demo", "hemisphere"]


@pytest.mark.parametrize("argv", [
    ["stats", "--C", "2", "--d", str(10 ** 400)],
    ["stats", "--C", str(10 ** 400), "--d", "512"],
    # the projection overflows to an infinite canvas width
    ["render", "--fov", "1e-300", "--pose", "1e10", "0", "0"],
    # the focal length (W - 1) / (2 tan(fov / 2)) is infinite
    ["render", "--fov", "1e-320", "--pose", "0", "0", "0"],
    # a finite canvas width of 301 digits
    ["render", "--fov", "40", "--pose", "1e300", "0", "0"],
    ["stats", "--C", _HUGE, "--d", "512"],
    ["stats", "--C", "3", "--d", _HUGE, "--trials", "1"],
    ["stats", "--C", "200", "--d", "512", "--trials", "-" + _HUGE],
    ["stats", "--C", "200", "--d", "512", "--trials", "1", "--seed", "-" + _HUGE],
    [*_DEMO, "--frames", _HUGE],
    [*_DEMO, "--frames", "-" + _HUGE],
    [*_DEMO, "--size", _HUGE],
    [*_DEMO, "--size", "-" + _HUGE],
    [*_DEMO, "--radius", _HUGE],
    [*_DEMO, "--radius", "-" + _HUGE],
    ["grad-check", "--repeats", "-" + _HUGE],
    ["grad-check", "--seed", "-" + _HUGE],
    ["train", "--seed", "-" + _HUGE],
    # the text of the config file follows --config
    ["train", "--config", f"C = {_HUGE}"],
    ["train", "--config", f"epochs = -{_HUGE}"],
    # a depth PGM whose width is a 5000-digit token
    ["render", "--pose", "0", "0", "0", "--depth", "{inputs}/long_token.pgm"],
], ids=["stats_huge_d", "stats_huge_C", "render_overflowing_projection", "render_infinite_focal_length",
        "render_huge_canvas", "stats_C_breaks_down", "stats_monte_carlo_caps",
        "stats_negative_trials", "stats_negative_seed", "demo_huge_frames",
        "demo_negative_frames", "demo_huge_size", "demo_negative_size", "demo_huge_radius",
        "demo_negative_radius", "grad_check_negative_repeats", "grad_check_negative_seed",
        "train_negative_seed", "train_run_too_large", "train_negative_epochs",
        "render_long_header_token"])
def test_out_of_float_range_inputs_are_short_usage_errors(subcommand_inputs, tmp_path,
                                                           capsys, argv):
    argv = [a.replace("{inputs}", str(subcommand_inputs)) for a in argv]
    if argv[0] == "render" and "--demo" not in argv:
        identity = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]
        pose = argv.index("--pose") + 1
        argv = [*argv[:pose], *identity, *argv[pose:]]
        for flag, name in (("--depth", "depth.lh2t"), ("--albedo", "albedo.ppm")):
            if flag not in argv:
                argv += [flag, str(subcommand_inputs / name)]
    if "--config" in argv:
        at = argv.index("--config") + 1
        (tmp_path / "run.cfg").write_text(argv[at] + "\n")
        argv = [*argv[:at], str(tmp_path / "run.cfg"), *argv[at + 1:]]
    if argv[0] in ("render", "train"):
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("lh2: error:")
    assert len(err) <= 300
    if "1e-300" in argv:
        assert "--fov" in err


def _parse_stats(stdout):
    rows = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition(" = ")
        rows[key] = value
    return rows


def test_stats_closed_form(capsys):
    assert main(["stats", "--C", "200", "--d", "512"]) == 0
    rows = _parse_stats(capsys.readouterr().out)
    assert set(rows) == {"C", "d", "cos_min", "theta_min_rad", "theta_min_deg",
                         "std_cos", "cos_half", "cos_quarter"}
    est = evt_estimate(200, 512)
    assert list(rows) == list(est)
    assert float(rows["cos_min"]) == pytest.approx(est["cos_min"], rel=1e-12)
    assert float(rows["std_cos"]) == pytest.approx(est["std_cos"], rel=1e-12)


def test_stats_with_monte_carlo(capsys):
    assert main(["stats", "--C", "20", "--d", "16", "--trials", "3",
                 "--seed", "2"]) == 0
    rows = _parse_stats(capsys.readouterr().out)
    assert {"max_cos_mean", "std_cos_emp", "mean_cos_emp", "pairs"} <= set(rows)
    assert int(rows["pairs"]) == 3 * 20 * 19 // 2


def test_stats_out_of_domain(capsys):
    assert main(["stats", "--C", "3", "--d", "2"]) == 3
    assert capsys.readouterr().err.startswith("lh2: error:")


def test_stats_over_the_monte_carlo_caps_exits_3(capsys):
    # 2 ln C / d = 0.994 and C*d*trials = 9e7 pass, but one trial's sample
    # (9e7 values) and its 9e12 cosines would not finish
    assert main(["stats", "--C", "3000000", "--d", "30", "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lh2: error:")
    assert all(f"{name} = " in captured.err for name in ("C*d", "trials*C^2", "trials*C^2*d"))


def test_stats_writes_csv(tmp_path, capsys):
    out = tmp_path / "stats"
    assert main(["stats", "--C", "200", "--d", "512", "--out-dir", str(out)]) == 0
    printed = _parse_stats(capsys.readouterr().out)
    with open(out / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert set(rows[0]) == set(printed)
    assert float(rows[0]["cos_min"]) == pytest.approx(float(printed["cos_min"]),
                                                      rel=1e-8)


def test_render_demo(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["render", "--demo", "hemisphere", "--size", "16",
                 "--frames", "3", "--out-dir", str(out)]) == 0
    assert "wrote 9 frames" in capsys.readouterr().out
    assert (out / "canonical.ppm").is_file()
    assert (out / "depth.pgm").is_file()
    frames = sorted(p.name for p in out.glob("axis*.ppm"))
    assert len(frames) == 9
    assert read_pgm(out / "depth.pgm").shape == (16, 16)
    img = read_ppm(out / frames[0])
    assert img.ndim == 3 and img.shape[2] == 3


def _demo_peak_bytes(out, frames):
    tracemalloc.start()
    try:
        rc = main(["render", "--demo", "hemisphere", "--size", "128",
                   "--frames", str(frames), "--out-dir", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


def test_render_demo_memory_does_not_grow_with_the_frames(tmp_path, capsys):
    # 3 frames against 18: each frame is written before the next is rendered
    one = _demo_peak_bytes(tmp_path / "one", 1)
    six = _demo_peak_bytes(tmp_path / "six", 6)
    assert "wrote 18 frames" in capsys.readouterr().out
    frame_bytes = 128 * 128 * (3 * 8 + 1)      # a float64 image and its mask
    assert six - one < frame_bytes


def test_render_custom_pose(tmp_path, capsys, monkeypatch):
    # the depth frame comes from the one render warp_image makes
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return scatter_min_render(*args, **kwargs)

    monkeypatch.setattr(depth_renderer, "scatter_min_render", counted)
    monkeypatch.setattr(cli, "scatter_min_render", counted, raising=False)
    depth_path = tmp_path / "depth.lh2t"
    albedo_path = tmp_path / "albedo.ppm"
    write_tensor(depth_path, np.full((8, 8), 10.0))
    write_ppm(np.full((8, 8, 3), 0.5), albedo_path)
    out = tmp_path / "render"
    identity = ["1", "0", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0"]
    rc = main(["render", "--depth", str(depth_path), "--albedo", str(albedo_path),
               "--pose", *identity, "--out-dir", str(out)])
    assert rc == 0
    assert "frame.ppm" in capsys.readouterr().out
    assert (out / "canonical.ppm").is_file()
    assert (out / "frame.ppm").is_file()
    assert read_pgm(out / "frame.pgm").shape == (8, 8)
    assert len(calls) == 1


@pytest.mark.parametrize("demo_flags", [["--size", "3"], ["--frames", "0"],
                                        ["--rotations", "999", "0", "0"]])
def test_render_custom_ignores_the_demo_flags(subcommand_inputs, tmp_path, capsys,
                                              demo_flags):
    # --size, --frames and --rotations shape the demo alone: a custom render
    # given values the demo rejects writes the files it writes without them
    argv = ["render", "--depth", str(subcommand_inputs / "depth.lh2t"),
            "--albedo", str(subcommand_inputs / "albedo.ppm"),
            "--pose", *(str(v) for v in _IDENTITY), "0", "0", "0"]
    assert main(argv + ["--out-dir", str(tmp_path / "plain")]) == 0
    assert main(argv + demo_flags + ["--out-dir", str(tmp_path / "flags")]) == 0
    capsys.readouterr()
    for name in ("canonical.ppm", "frame.ppm", "frame.pgm"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_render_custom_pose_written_with_repr(subcommand_inputs, tmp_path, capsys, axis):
    # repr writes sin(180 deg) as 1.2246467991473532e-16, and a rotation by
    # 180 degrees holds its negative too
    rotation = depth_renderer.rotation_about_axis(axis, 180.0).ravel()
    pose = [repr(float(v)) for v in (*rotation, 0.0, 0.0, 0.0)]
    assert "-1.2246467991473532e-16" in pose
    rc = main(["render", "--depth", str(subcommand_inputs / "depth.lh2t"),
               "--albedo", str(subcommand_inputs / "albedo.ppm"),
               "--pose", *pose, "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "frame.ppm" in capsys.readouterr().out


def test_render_demo_rotations_with_exponents(tmp_path, capsys):
    for value in ("-1e-05", "-2.4492935982947064e-16"):
        rc = main(["render", "--demo", "hemisphere", "--size", "8", "--frames", "1",
                   "--rotations", value, "0", "0", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "wrote 3 frames" in capsys.readouterr().out


def test_render_custom_requires_inputs(tmp_path, capsys):
    rc = main(["render", "--depth", str(tmp_path / "d.lh2t"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "custom render needs" in capsys.readouterr().err


def test_render_custom_over_the_work_cap_names_the_depth(tmp_path, capsys):
    # 200 x 200 input pixels x 21^2 dilation cells is above 2^24
    depth_path = tmp_path / "depth.lh2t"
    albedo_path = tmp_path / "albedo.ppm"
    write_tensor(depth_path, np.full((200, 200), 10.0))
    write_ppm(np.full((200, 200, 3), 0.5), albedo_path)
    identity = ["1", "0", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0"]
    rc = main(["render", "--depth", str(depth_path), "--albedo", str(albedo_path),
               "--pose", *identity, "--radius", "10", "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("lh2: error: --depth ")
    assert not (tmp_path / "out").exists()


def test_render_depth_whose_dims_wrap_an_int64_product_is_a_format_error(tmp_path, capsys):
    # 65536^4 = 2^64 elements: an int64 product wraps to 0, which matches
    # the empty payload
    depth_path = tmp_path / "depth.lh2t"
    depth_path.write_bytes(b"LH2T" + struct.pack("<II", 1, 4) + struct.pack("<4I", *[65536] * 4))
    albedo_path = tmp_path / "albedo.ppm"
    write_ppm(np.full((8, 8, 3), 0.5), albedo_path)
    identity = ["1", "0", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0"]
    rc = main(["render", "--depth", str(depth_path), "--albedo", str(albedo_path),
               "--pose", *identity, "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "lh2: error: payload needs 7.379e+19 bytes, got 0\n"
    assert not (tmp_path / "out").exists()


def test_render_albedo_shape_mismatch(tmp_path, capsys):
    depth_path = tmp_path / "depth.lh2t"
    albedo_path = tmp_path / "albedo.ppm"
    write_tensor(depth_path, np.full((8, 8), 10.0))
    write_ppm(np.full((8, 9, 3), 0.5), albedo_path)
    identity = ["1", "0", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0"]
    rc = main(["render", "--depth", str(depth_path), "--albedo", str(albedo_path),
               "--pose", *identity, "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "does not match depth" in capsys.readouterr().err


def test_grad_check_subcommand(capsys):
    assert main(["grad-check", "--repeats", "1", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.endswith("ok") for line in lines)


def test_grad_check_config_flag_is_gone(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 0\n")
    assert main(["grad-check", "--config", str(cfg), "--repeats", "1"]) == 3
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_grad_check_corruption_fails(capsys):
    rc = main(["grad-check", "--repeats", "1", "--seed", "0",
               "--corrupt", "uamf_loss"])
    assert rc == 1
    out = capsys.readouterr().out
    assert any("uamf_loss" in line and "FAIL" in line
               for line in out.splitlines())


@pytest.mark.parametrize("argv, flag", [
    (["grad-check", "--repeats", "0"], "--repeats"),
    (["grad-check", "--repeats", "-2"], "--repeats"),
    (["render", "--demo", "hemisphere", "--size", "8", "--frames", "-2"], "--frames"),
    (["render", "--demo", "hemisphere", "--size", "8",
      "--rotations", "nan", "0", "0"], "--rotations"),
    (["grad-check", "--corrupt", "nosuchop", "--repeats", "1"], "--corrupt"),
    (["stats", "--C", "10", "--d", "16", "--trials", "-1"], "--trials"),
    (["render", "--demo", "hemisphere", "--size", "8",
      "--rotations", "1e300", "0", "0", "--frames", "2"], "--rotations"),
    (["render", "--demo", "hemisphere", "--size", "0"], "--size"),
    (["render", "--demo", "hemisphere", "--size", "8", "--radius", "-1"], "--radius"),
    # just above the render work cap of 2^24 input pixels x dilation cells
    (["render", "--demo", "hemisphere", "--size", "1366"], "--size"),
    (["render", "--demo", "hemisphere", "--size", "8", "--radius", "256"], "--radius"),
    (["stats", "--C", "10", "--d", "16", "--trials", "1", "--seed", "-1"], "--seed"),
    (["grad-check", "--repeats", "1", "--seed", "-1"], "--seed"),
    # 3 x 100000 demo frames of 30 x 30 pixels, all held until written
    (["render", "--demo", "hemisphere", "--size", "30", "--frames", "100000"], "--frames"),
    # over the cap of 1000 repeats
    (["grad-check", "--repeats", str(10 ** 9)], "--repeats"),
    (["grad-check", "--repeats", str(10 ** 300)], "--repeats"),
    # the demo's own flags, which a custom render ignores
    (["render", "--demo", "hemisphere", "--size", "3"], "--size"),
    (["render", "--demo", "hemisphere", "--frames", "0"], "--frames"),
    (["render", "--demo", "hemisphere", "--rotations", "999", "0", "0"], "--rotations"),
], ids=[
    # the ids pytest once derived from the positions, pinned: a case added
    # anywhere takes a new id and renames no other case
    "argv0---repeats", "argv1---repeats", "argv2---frames", "argv3---rotations",
    "argv4---corrupt", "argv5---trials", "argv6---rotations", "argv7---size", "argv8---radius",
    "argv9---size", "argv10---radius", "argv11---seed", "argv12---seed", "argv13---frames",
    "argv14---repeats", "argv15---repeats", "argv16---size", "argv17---frames",
    "argv18---rotations"])
def test_bad_flag_value_is_a_usage_error_naming_the_flag(tmp_path, capsys, monkeypatch,
                                                         argv, flag):
    def no_case(rng):
        raise AssertionError("a gradient-check case was drawn")

    # a bad value exits before any gradient-check instance is drawn
    monkeypatch.setattr(train_harness, "_gradcheck_cases", no_case)
    if argv[0] == "render":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"lh2: error: {flag} ")
    assert not (tmp_path / "out").exists()
    if flag == "--corrupt":
        assert all(op in err for op in GRADCHECK_OPS)


def test_hist_subcommand(tiny_config, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out-dir", str(run)]) == 0
    capsys.readouterr()
    out = tmp_path / "hist"
    rc = main(["hist", "--checkpoint", str(run / "checkpoints" / "final"),
               "--config", str(tiny_config), "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "pad_mean = " in stdout
    assert "nad_std = " in stdout
    lines = (out / "hist.csv").read_text().strip().splitlines()
    assert len(lines) == 65
    assert lines[0] == "bin_lo,bin_hi,pad_count,nad_count"


def test_hist_scores_more_pairs_than_one_array_holds(tmp_path, capsys):
    # 320000 samples against 64 proxies: 20480000 scores, over MAX_WORK,
    # which histogram_dump takes a block of rows at a time
    rng = np.random.default_rng(0)
    stem = tmp_path / "ckpt"
    write_tensor(str(stem) + ".embedder.lh2t", rng.standard_normal((8, 8)))
    write_tensor(str(stem) + ".proxies.lh2t", rng.standard_normal((64, 8)))
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("C = 64\nd = 8\nd_in = 8\nsamples_per_class = 5000\n")
    rc = main(["hist", "--checkpoint", str(stem), "--config", str(cfg),
               "--out-dir", str(tmp_path / "hist")])
    assert rc == 0
    printed = _parse_stats(capsys.readouterr().out)
    assert printed["pad_count"] == "320000"
    assert printed["nad_count"] == str(320000 * 63)


def test_hist_dimension_mismatch(tiny_config, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out-dir", str(run)]) == 0
    wide = tmp_path / "wide.cfg"
    wide.write_text(TINY_CONFIG.replace("d_in = 16", "d_in = 32"))
    rc = main(["hist", "--checkpoint", str(run / "checkpoints" / "final"),
               "--config", str(wide), "--out-dir", str(tmp_path / "hist")])
    assert rc == 3
    assert "input dims" in capsys.readouterr().err


def test_hist_feature_width_mismatch(tmp_path, capsys):
    # a 64 x 16 embedder against 64 x 8 proxies: no feature space is shared
    rng = np.random.default_rng(0)
    stem = tmp_path / "ckpt"
    write_tensor(str(stem) + ".embedder.lh2t", rng.standard_normal((64, 16)))
    write_tensor(str(stem) + ".proxies.lh2t", rng.standard_normal((64, 8)))
    cfg = tmp_path / "c64.cfg"
    cfg.write_text("C = 64\nd = 8\nd_in = 64\n")
    rc = main(["hist", "--checkpoint", str(stem), "--config", str(cfg),
               "--out-dir", str(tmp_path / "hist")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "(64, 16)" in err and "(64, 8)" in err
    assert "matmul" not in err
    assert not (tmp_path / "hist").exists()


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_hist_names_the_first_proxy_row_without_a_finite_norm(tmp_path, capsys, bad):
    rng = np.random.default_rng(0)
    stem = tmp_path / "ckpt"
    proxies = rng.standard_normal((8, 8))
    proxies[5, 2] = proxies[7, 0] = bad
    write_tensor(str(stem) + ".embedder.lh2t", rng.standard_normal((16, 8)))
    write_tensor(str(stem) + ".proxies.lh2t", proxies)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["hist", "--checkpoint", str(stem), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "hist")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("lh2: error: proxy row 5 has norm ")
    assert "RuntimeWarning" not in err and caught == []
    assert not (tmp_path / "hist").exists()


@pytest.mark.parametrize("logmean", ["700", "709"])
def test_hist_features_whose_norms_overflow_are_rejected(tmp_path, capsys, logmean):
    # samples of norm e^700 (e^709, at the edge of float range) whose
    # features (half their first 8 coordinates) are finite, but whose sums
    # of squares overflow: no cosine can be read from them
    stem = tmp_path / "ckpt"
    write_tensor(str(stem) + ".embedder.lh2t", 0.5 * np.eye(16, 8))
    write_tensor(str(stem) + ".proxies.lh2t", np.eye(8))
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(TINY_CONFIG + f"norm_logmean = {logmean}\nnorm_logstd = 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["hist", "--checkpoint", str(stem), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "hist")])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == "lh2: error: z has a row whose norm is not finite or overflows\n"
    assert "pad_mean" not in captured.out
    assert "RuntimeWarning" not in captured.err and caught == []
    assert not (tmp_path / "hist" / "hist.csv").exists()


def test_hist_features_that_overflow_in_the_product_exit_with_the_batch_message(
        tmp_path, capsys):
    # inputs of norm e^709 through a standard-normal embedder: X @ embedder
    # itself overflows.  Run under the suite's error::RuntimeWarning filter,
    # numpy's overflow warning would stop the command before the batch's check.
    rng = np.random.default_rng(0)
    stem = tmp_path / "ckpt"
    embedder = rng.standard_normal((16, 8))
    write_tensor(str(stem) + ".embedder.lh2t", embedder)
    write_tensor(str(stem) + ".proxies.lh2t", np.eye(8))
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(TINY_CONFIG + "norm_logmean = 709\nnorm_logstd = 0\n")
    rc = main(["hist", "--checkpoint", str(stem), "--config", str(cfg),
               "--out-dir", str(tmp_path / "hist")])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == "lh2: error: z has a row whose norm is not finite or overflows\n"
    assert not (tmp_path / "hist" / "hist.csv").exists()
    # the histogram's block loop alone ignores the overflow: the accuracy
    # pass over the same blocks keeps numpy's defaults
    X, labels = train_harness.generate_dataset(parse_config(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow encountered in matmul"):
            train_harness.train_accuracy(X, labels, embedder, load_checkpoint(str(stem))[1])


def test_hist_class_count_mismatch(tiny_config, tmp_path, capsys):
    # an 8-proxy checkpoint against configs with more and with fewer classes
    rng = np.random.default_rng(0)
    stem = tmp_path / "ckpt"
    write_tensor(str(stem) + ".embedder.lh2t", rng.standard_normal((16, 8)))
    write_tensor(str(stem) + ".proxies.lh2t", np.eye(8))
    for classes in (12, 4):
        cfg = tmp_path / f"c{classes}.cfg"
        cfg.write_text(TINY_CONFIG.replace("C = 8", f"C = {classes}"))
        rc = main(["hist", "--checkpoint", str(stem), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "hist")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "8 proxies" in err and f"C = {classes}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "hist").exists()
