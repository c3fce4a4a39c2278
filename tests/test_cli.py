import hashlib
import subprocess
import sys

import numpy as np
import pytest

from cstr import Rng, read_pfm, read_pgm, read_weights, write_pfm, write_pgm
from cstr import selftest
from cstr.cli import main

F32 = np.float32

TINY_CONFIG_TEXT = "layers=2\nchannels=8\nheads=2\n"


@pytest.fixture()
def workdir(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG_TEXT)
    rng = Rng(0)
    left = rng.generator.integers(0, 256, size=(16, 32)).astype(F32) / F32(255)
    right = rng.generator.integers(0, 256, size=(16, 32)).astype(F32) / F32(255)
    write_pgm(tmp_path / "left.pgm", left)
    write_pgm(tmp_path / "right.pgm", right)
    return tmp_path


def run_cli(*args) -> tuple[int, str]:
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in args])
    return code, buf.getvalue()


def parse_kv(out: str) -> dict:
    pairs = {}
    for line in out.strip().splitlines():
        key, value = line.split("=", 1)
        pairs[key] = value
    return pairs


# --- init-weights ---


def test_init_weights_same_seed_same_bytes(workdir):
    a, b = workdir / "a.w", workdir / "b.w"
    assert run_cli("init-weights", "--config", workdir / "run.cfg", "--out", a)[0] == 0
    assert run_cli("init-weights", "--config", workdir / "run.cfg", "--out", b)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_init_weights_seed_changes_bytes(workdir):
    a, b = workdir / "a.w", workdir / "b.w"
    run_cli("init-weights", "--config", workdir / "run.cfg", "--out", a)
    run_cli("init-weights", "--config", workdir / "run.cfg", "--seed", 9, "--out", b)
    assert a.read_bytes() != b.read_bytes()


def test_init_weights_default_config_has_six_layers(tmp_path):
    out = tmp_path / "full.w"
    assert run_cli("init-weights", "--span", 8, "--out", out)[0] == 0
    store = read_weights(out)
    layers = {n.split(".")[0] for n in store if n.startswith("layer")}
    assert layers == {f"layer{i}" for i in range(6)}
    assert store["layer0.mmp.wax.Wq"].shape == (128, 128)


def test_init_weights_bad_config_exits_one(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text("heads=5\nchannels=128\n")
    code, _ = run_cli("init-weights", "--config", bad, "--out", workdir / "x.w")
    assert code == 1


# --- infer ---


@pytest.fixture()
def weights_file(workdir):
    path = workdir / "model.w"
    run_cli("init-weights", "--config", workdir / "run.cfg", "--span", 16,
            "--out", path)
    return path


def test_infer_smoke(workdir, weights_file):
    code, out = run_cli(
        "infer",
        "--left", workdir / "left.pgm",
        "--right", workdir / "right.pgm",
        "--weights", weights_file,
        "--config", workdir / "run.cfg",
        "--out-disp", workdir / "disp.pfm",
        "--out-occ", workdir / "occ.pgm",
    )
    assert code == 0
    kv = parse_kv(out)
    assert set(kv) == {"runtime_s", "disp_min", "disp_max", "disp_mean"}
    disp = read_pfm(workdir / "disp.pfm")
    occ = read_pgm(workdir / "occ.pgm")
    assert disp.shape == (16, 32)
    assert occ.shape == (16, 32)
    assert float(kv["disp_min"]) >= 0
    assert float(kv["disp_max"]) < 32


def test_infer_full_precision_occlusion_flag(workdir, weights_file):
    code, _ = run_cli(
        "infer",
        "--left", workdir / "left.pgm",
        "--right", workdir / "right.pgm",
        "--weights", weights_file,
        "--config", workdir / "run.cfg",
        "--out-disp", workdir / "disp.pfm",
        "--out-occ", workdir / "occ.pgm",
        "--out-occ-pfm", workdir / "occ.pfm",
    )
    assert code == 0
    fine = read_pfm(workdir / "occ.pfm")
    coarse = read_pgm(workdir / "occ.pgm")
    assert np.abs(fine - coarse).max() <= 0.5 / 255 + 1e-6


def test_infer_deterministic_outputs(workdir, weights_file):
    args = (
        "infer",
        "--left", workdir / "left.pgm",
        "--right", workdir / "right.pgm",
        "--weights", weights_file,
        "--config", workdir / "run.cfg",
        "--out-disp", workdir / "disp.pfm",
        "--out-occ", workdir / "occ.pgm",
    )
    run_cli(*args)
    first = (workdir / "disp.pfm").read_bytes()
    run_cli(*args)
    assert (workdir / "disp.pfm").read_bytes() == first


def test_infer_golden_transcript(workdir, weights_file):
    # seeded weights + seeded pair: the disparity PFM bytes are frozen
    run_cli(
        "infer",
        "--left", workdir / "left.pgm",
        "--right", workdir / "right.pgm",
        "--weights", weights_file,
        "--config", workdir / "run.cfg",
        "--out-disp", workdir / "disp.pfm",
        "--out-occ", workdir / "occ.pgm",
    )
    digest = hashlib.sha256((workdir / "disp.pfm").read_bytes()).hexdigest()
    assert digest == "bafd160f6f765fe2e93145a46b5cf46581aae1091b2049221ecc3f5992740f8c"


def test_infer_shape_mismatch_exits_nonzero_and_names_shapes(workdir, weights_file, capsys):
    small = workdir / "small.pgm"
    write_pgm(small, np.zeros((8, 16), dtype=F32))
    code, _ = run_cli(
        "infer",
        "--left", workdir / "left.pgm",
        "--right", small,
        "--weights", weights_file,
        "--config", workdir / "run.cfg",
        "--out-disp", workdir / "d.pfm",
        "--out-occ", workdir / "o.pgm",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "16, 32" in err and "8, 16" in err


def test_infer_unreadable_weights_exits_two(workdir):
    code, _ = run_cli(
        "infer",
        "--left", workdir / "left.pgm",
        "--right", workdir / "right.pgm",
        "--weights", workdir / "missing.w",
        "--config", workdir / "run.cfg",
        "--out-disp", workdir / "d.pfm",
        "--out-occ", workdir / "o.pgm",
    )
    assert code == 2


# --- eval ---


def test_eval_identical_maps(workdir):
    rng = Rng(5)
    gt = rng.generator.random((8, 8), dtype=F32) * 10
    write_pfm(workdir / "gt.pfm", gt)
    write_pfm(workdir / "pred.pfm", gt)
    code, out = run_cli("eval", "--pred", workdir / "pred.pfm", "--gt", workdir / "gt.pfm")
    assert code == 0
    assert "epe=0.0000" in out
    assert "three_px=0.0000" in out
    assert "occ_iou" not in out


def test_eval_constant_offset(workdir):
    gt = np.zeros((8, 8), dtype=F32)
    write_pfm(workdir / "gt.pfm", gt)
    write_pfm(workdir / "pred.pfm", gt + 4)
    code, out = run_cli("eval", "--pred", workdir / "pred.pfm", "--gt", workdir / "gt.pfm")
    kv = parse_kv(out)
    assert kv["epe"] == "4.0000"
    assert kv["three_px"] == "100.0000"


def test_eval_excludes_occluded_half(workdir):
    gt = np.zeros((4, 4), dtype=F32)
    pred = gt.copy()
    pred[:, 2:] = 8.0  # errors live only in the occluded half
    occ = np.zeros((4, 4), dtype=F32)
    occ[:, 2:] = 1.0
    write_pfm(workdir / "gt.pfm", gt)
    write_pfm(workdir / "pred.pfm", pred)
    write_pgm(workdir / "occ.pgm", occ)
    code, out = run_cli(
        "eval", "--pred", workdir / "pred.pfm", "--gt", workdir / "gt.pfm",
        "--gt-occ", workdir / "occ.pgm",
    )
    kv = parse_kv(out)
    assert kv["epe"] == "0.0000"
    assert kv["three_px"] == "0.0000"


def test_eval_occlusion_iou(workdir):
    gt = np.zeros((4, 4), dtype=F32)
    write_pfm(workdir / "gt.pfm", gt)
    write_pfm(workdir / "pred.pfm", gt)
    occ = np.zeros((4, 4), dtype=F32)
    occ[0] = 1.0
    write_pgm(workdir / "gt_occ.pgm", occ)
    write_pgm(workdir / "pred_occ.pgm", occ)
    code, out = run_cli(
        "eval", "--pred", workdir / "pred.pfm", "--gt", workdir / "gt.pfm",
        "--gt-occ", workdir / "gt_occ.pgm", "--pred-occ", workdir / "pred_occ.pgm",
    )
    assert parse_kv(out)["occ_iou"] == "1.0000"


def test_eval_shape_mismatch_exits_one(workdir):
    write_pfm(workdir / "gt.pfm", np.zeros((4, 4), dtype=F32))
    write_pfm(workdir / "pred.pfm", np.zeros((4, 5), dtype=F32))
    code, _ = run_cli("eval", "--pred", workdir / "pred.pfm", "--gt", workdir / "gt.pfm")
    assert code == 1


def test_eval_malformed_pfm_exits_two(workdir):
    (workdir / "junk.pfm").write_bytes(b"not a pfm")
    write_pfm(workdir / "gt.pfm", np.zeros((4, 4), dtype=F32))
    code, _ = run_cli("eval", "--pred", workdir / "junk.pfm", "--gt", workdir / "gt.pfm")
    assert code == 2


# --- usage errors ---


def test_unknown_flag_exits_one():
    code, _ = run_cli("eval", "--nope", "x")
    assert code == 1


def test_unknown_subcommand_exits_one():
    code, _ = run_cli("transmogrify")
    assert code == 1


# --- selftest ---


def test_selftest_passes_and_reports_checks():
    proc = subprocess.run(
        [sys.executable, "-m", "cstr.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if ": PASS" in l or ": FAIL" in l]
    assert len(lines) >= 12
    assert all(": PASS" in l for l in lines)


@pytest.mark.parametrize(
    "check, detail",
    [
        (lambda: (False, "forced failure"), "forced failure"),
        (lambda: 1 / 0, "raised ZeroDivisionError"),
    ],
    ids=["returns_false", "raises"],
)
def test_selftest_failed_check_exits_three(monkeypatch, check, detail):
    monkeypatch.setattr(selftest, "CHECKS", [("broken", check)])
    code, out = run_cli("selftest")
    assert code == 3
    assert "broken: FAIL" in out
    assert detail in out
