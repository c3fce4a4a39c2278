"""Command-line entry point.

Subcommands: ``init-weights`` (seeded parameter file), ``infer`` (stereo pair
to disparity/occlusion maps), ``eval`` (metrics between maps), ``selftest``
(the invariant suite). stdout of infer/eval carries machine-parseable
key=value lines only; diagnostics go to stderr.

Exit codes: 0 success, 1 usage error, 2 IO/format error, 3 self-test failure.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .formats import (
    ConfigError,
    FormatError,
    ImagePair,
    parse_config,
    read_pfm,
    read_pgm,
    read_weights,
    write_pfm,
    write_pgm,
    write_weights,
)
from .metrics import epe, occ_iou, three_px_error
from .pipeline import DEFAULT_SPAN, ModelDescription, forward, init_weights
from .selftest import run_all

USAGE_ERROR = 1
IO_ERROR = 2
SELFTEST_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _load_config(path: str | None):
    if path is None:
        return parse_config("")
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config(f.read())
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from None


def _cmd_init_weights(args) -> int:
    config = _load_config(args.config)
    seed = config.seed if args.seed is None else args.seed
    store = init_weights(config, span=args.span, seed=seed)
    write_weights(args.out, store)
    print(f"wrote {len(store)} tensors to {args.out}", file=sys.stderr)
    return 0


def _cmd_infer(args) -> int:
    config = _load_config(args.config)
    left = read_pgm(args.left)[None]
    right = read_pgm(args.right)[None]
    pair = ImagePair(left, right)
    model = ModelDescription(config, read_weights(args.weights))
    start = time.perf_counter()
    disp, occ, _ = forward(pair, model)
    runtime = time.perf_counter() - start
    write_pfm(args.out_disp, disp.values)
    write_pgm(args.out_occ, occ.probs)
    if args.out_occ_pfm:
        write_pfm(args.out_occ_pfm, occ.probs)
    print(f"runtime_s={runtime:.4f}")
    print(f"disp_min={float(disp.values.min()):.4f}")
    print(f"disp_max={float(disp.values.max()):.4f}")
    print(f"disp_mean={float(disp.values.mean()):.4f}")
    return 0


def _cmd_eval(args) -> int:
    pred = read_pfm(args.pred)
    gt = read_pfm(args.gt)
    if pred.shape != gt.shape:
        raise ValueError(f"pred {pred.shape} and gt {gt.shape} shapes differ")
    mask = np.ones(gt.shape, dtype=bool)
    gt_occ = None
    if args.gt_occ:
        gt_occ = read_pgm(args.gt_occ) >= 0.5
        if gt_occ.shape != gt.shape:
            raise ValueError("occlusion map shape differs from disparity maps")
        mask = ~gt_occ
    print(f"epe={epe(pred, gt, mask):.4f}")
    print(f"three_px={three_px_error(pred, gt, mask):.4f}")
    if args.pred_occ and args.gt_occ:
        pred_occ = read_pgm(args.pred_occ) >= 0.5
        if pred_occ.shape != gt.shape:
            raise ValueError("occlusion map shape differs from disparity maps")
        print(f"occ_iou={occ_iou(pred_occ, gt_occ):.4f}")
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(out=sys.stdout)
    failed = [name for name, passed, _ in results if not passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed",
        file=sys.stderr,
    )
    return SELFTEST_FAILURE if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cstr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-weights", help="write a seeded CSTRW001 weight file")
    p.add_argument("--config", help="key=value config file (defaults when omitted)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--span", type=int, default=DEFAULT_SPAN,
                   help="position-embedding span (max line length)")
    p.add_argument("--out", required=True, help="output weight path")
    p.set_defaults(fn=_cmd_init_weights)

    p = sub.add_parser("infer", help="run the forward pipeline on a stereo pair")
    p.add_argument("--left", required=True, help="left image (PGM)")
    p.add_argument("--right", required=True, help="right image (PGM)")
    p.add_argument("--weights", required=True, help="CSTRW001 weight file")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out-disp", required=True, help="output disparity (PFM)")
    p.add_argument("--out-occ", required=True, help="output occlusion (PGM, 8-bit)")
    p.add_argument("--out-occ-pfm", help="optional full-precision occlusion (PFM)")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("eval", help="score a disparity map against ground truth")
    p.add_argument("--pred", required=True, help="predicted disparity (PFM)")
    p.add_argument("--gt", required=True, help="ground-truth disparity (PFM)")
    p.add_argument("--gt-occ", help="ground-truth occlusion (PGM); excludes occluded pixels")
    p.add_argument("--pred-occ", help="predicted occlusion (PGM); enables occ_iou")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (FormatError, OSError) as exc:
        print(f"cstr: {exc}", file=sys.stderr)
        return IO_ERROR
    except (ConfigError, ValueError) as exc:
        print(f"cstr: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
