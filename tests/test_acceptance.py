"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every criterion is backed by the packaged verification suite (cstr.selftest)
so the same checks are reachable through ``cstr selftest``; tolerances are
pinned here and inside the checks themselves.
"""

import time

import numpy as np

from cstr import selftest


def run_check(name: str) -> tuple[bool, str]:
    fn = dict(selftest.CHECKS)[name]
    return fn()


def report(criterion: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPT {criterion}: {status} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_attention_oracle():
    start = time.perf_counter()
    ok_w, detail_w = run_check("axial_width_dense_oracle")
    ok_h, detail_h = run_check("axial_height_dense_oracle")
    elapsed = time.perf_counter() - start
    report(
        "01 attention-oracle (20+20 cases <= 16x16x8ch, tol 1e-5, < 10 s)",
        ok_w and ok_h and elapsed < 10.0,
        f"width {detail_w}; height {detail_h}; total {elapsed:.2f}s",
    )


def test_criterion_02_position_encoding_structure():
    ok, detail = run_check("position_encoding_structure")
    report("02 position-encoding structure (exact identities)", ok, detail)


def test_criterion_03_sinkhorn_conservation():
    ok_m, detail_m = run_check("sinkhorn_row_marginals")
    ok_x, detail_x = run_check("sinkhorn_masked_cells")
    report(
        "03 sinkhorn conservation (20 cases <= 64x64, marginals 1e-4, mask 1e-8)",
        ok_m and ok_x,
        f"{detail_m}; {detail_x}",
    )


def test_criterion_04_disparity_regression_oracle():
    ok, detail = run_check("disparity_regression_oracle")
    report("04 disparity regression oracle (100 rows, diff < 1e-7, 5.1/0.0 case)", ok, detail)


def test_criterion_05_gradient_checks():
    oks, details = [], []
    for name in (
        "gradcheck_relative_response",
        "gradcheck_smooth_l1",
        "gradcheck_binary_entropy",
    ):
        ok, detail = run_check(name)
        oks.append(ok)
        details.append(f"{name.split('_', 1)[1]} {detail}")
    report(
        "05 gradient checks (central FD step 1e-4, rel err < 1e-3, 20 seeds each)",
        all(oks),
        "; ".join(details),
    )


def test_criterion_06_cep_schedule():
    ok, detail = run_check("cep_payload_schedule")
    report("06 CEP schedule over L=6 (M1=6, M2=last-only, M3=6)", ok, detail)


def test_criterion_07_metric_identities():
    ok, detail = run_check("metric_identities")
    from cstr import Rng, write_pfm
    from cstr.cli import main
    import io
    import tempfile
    from contextlib import redirect_stdout
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.pfm"
        write_pfm(path, Rng(1).generator.random((6, 6), dtype=np.float32) * 9)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["eval", "--pred", str(path), "--gt", str(path)])
        out = buf.getvalue()
    cli_ok = code == 0 and "epe=0.0000" in out and "three_px=0.0000" in out
    report(
        "07 metric identities (exact examples; self-eval prints zeros)",
        ok and cli_ok,
        f"{detail}; eval stdout: {out.strip().replace(chr(10), ' ')}",
    )


def test_criterion_08_end_to_end_determinism():
    ok, detail = run_check("forward_determinism")
    report("08 end-to-end determinism (2 runs + 4 threads, bit-identical, < 10 s)", ok, detail)


def test_criterion_09_format_round_trips():
    ok, detail = run_check("format_roundtrips")
    report("09 format round trips (100 fuzzed cases + malformed corpus)", ok, detail)


def test_criterion_10_config_defaults():
    ok, detail = run_check("config_defaults")
    report("10 config defaults (layers/channels/heads/scale/iters)", ok, detail)


def test_criterion_11_mask_correctness():
    ok, detail = run_check("epipolar_mask_convention")
    report("11 epipolar mask (6 allowed pairs)", ok, detail)


def test_criterion_12_loss_composition():
    ok, detail = run_check("loss_composition")
    report("12 loss composition (linearity; selector weights)", ok, detail)
