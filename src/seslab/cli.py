"""Command-line interface: every experiment as a reproducible subcommand.

Exit codes: 0 on success, 1 on runtime or I/O failure, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .basis import build_basis, save_basis, scale_set_from_alpha
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    FormatError,
    SeslabError,
    require_ints,
    require_reals,
)
from .fileio import read_pgm, write_pgm
from .geometry import (
    CameraIntrinsics,
    EgoMotion,
    PatchPlane,
    corollary_deviation,
    inverse_log_polar,
    log_polar,
    log_polar_roundtrip_ssim,
    parallel_bound,
    projective_mapping,
    scale_factor,
    scale_mapping,
)
from .harness import EquivConfig, run_experiment
from .resample import warp
from .synth import synth_corpus


def _echo_config(out_dir: Path, name: str, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}_config.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from None


def _merge(defaults: dict, config_path, cli_values: dict) -> dict:
    """Precedence: explicit CLI flags > config file > defaults."""
    merged = dict(defaults)
    if config_path:
        file_values = _load_json(config_path)
        if not isinstance(file_values, dict):
            raise ConfigError(f"{config_path}: config must be a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys {sorted(unknown)}")
        merged.update(file_values)
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    return merged


def _ints(text: str) -> list:
    return [int(tok) for tok in str(text).replace(",", " ").split()]


def _floats(text: str) -> list:
    return [float(tok) for tok in str(text).replace(",", " ").split()]


def cmd_basis(args) -> int:
    defaults = {"alpha": 0.1, "scales": 3, "order": 6, "k": 7, "sigma_base": 1.0}
    cfg = _merge(
        defaults,
        args.config,
        {
            "alpha": args.alpha,
            "scales": args.scales,
            "order": args.order,
            "k": args.k,
            "sigma_base": args.sigma_base,
        },
    )
    require_ints("basis", scales=cfg["scales"], order=cfg["order"], k=cfg["k"])
    require_reals("basis", alpha=cfg["alpha"], sigma_base=cfg["sigma_base"])
    scale_set = scale_set_from_alpha(float(cfg["alpha"]), cfg["scales"])
    if cfg["sigma_base"] != 1.0:
        scale_set = scale_set.scaled(float(cfg["sigma_base"]))
    basis = build_basis(scale_set, max_order=cfg["order"], k=cfg["k"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_basis(out, basis)
    _echo_config(Path(args.out_dir), "basis", {**cfg, "out": str(out)})
    print(f"basis shape {list(basis.filters.shape)} -> {out}")
    return 0


def _read_plane(path) -> PatchPlane:
    return PatchPlane.from_dict(_load_json(path))


def _read_motion(path) -> EgoMotion:
    return EgoMotion.from_dict(_load_json(path))


def _read_intrinsics(path) -> CameraIntrinsics:
    return CameraIntrinsics.from_dict(_load_json(path))


def cmd_warp(args) -> int:
    image = read_pgm(args.image)
    out_dir = Path(args.out_dir)
    metrics: dict = {"mode": args.mode}
    if args.mode in ("projective", "scale"):
        if not (args.plane and args.motion and args.intrinsics):
            raise ConfigError(f"mode {args.mode} needs --plane, --motion, and --intrinsics")
        plane = _read_plane(args.plane)
        motion = _read_motion(args.motion)
        intr = _read_intrinsics(args.intrinsics)
        t_z = float(motion.translation[2])
        s = scale_factor(plane, t_z)
        bound, ratio = parallel_bound(plane, intr)
        metrics.update(
            {
                "scale_factor": s,
                "parallel_bound": bound,
                "parallel_ratio": ratio,
                "corollary_deviation_px": corollary_deviation(intr, plane, t_z),
            }
        )
        if args.mode == "projective":
            mapping = projective_mapping(intr, plane, motion)
        else:
            mapping = scale_mapping(intr, s)
        result = warp(image, mapping)
    elif args.mode == "logpolar":
        center = None
        if args.intrinsics:
            intr = _read_intrinsics(args.intrinsics)
            center = (intr.v0, intr.u0)
        result = log_polar(image, center=center, r_min=args.r_min)
    elif args.mode == "invlogpolar":
        if not args.out_shape:
            raise ConfigError("mode invlogpolar needs --out-shape H,W")
        h, w = _ints(args.out_shape)
        center = None
        if args.intrinsics:
            intr = _read_intrinsics(args.intrinsics)
            center = (intr.v0, intr.u0)
        result = inverse_log_polar(image, (h, w), center=center, r_min=args.r_min)
    else:
        raise ConfigError(f"unknown warp mode {args.mode!r}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(out, result)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "warp_metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    _echo_config(
        out_dir,
        "warp",
        {
            "image": str(args.image),
            "mode": args.mode,
            "plane": args.plane and str(args.plane),
            "motion": args.motion and str(args.motion),
            "intrinsics": args.intrinsics and str(args.intrinsics),
            "out": str(out),
            "out_shape": args.out_shape,
            "r_min": args.r_min,
        },
    )
    print(f"warp mode {args.mode} -> {out}")
    return 0


def _check_sweep_types(cfg: dict) -> None:
    for key in ("heights", "up_factors"):
        if not isinstance(cfg[key], list):
            raise ConfigError(f"ssim-sweep {key} must be a list, got {cfg[key]!r}")
    heights = {f"heights[{i}]": h for i, h in enumerate(cfg["heights"])}
    require_ints("ssim-sweep", count=cfg["count"], seed=cfg["seed"], **heights)
    require_reals("ssim-sweep", **{f"up_factors[{i}]": up for i, up in enumerate(cfg["up_factors"])})
    if not isinstance(cfg["kind"], str):
        raise ConfigError(f"ssim-sweep kind must be a string, got {cfg['kind']!r}")
    if cfg["width"] is not None:
        require_ints("ssim-sweep", width=cfg["width"])


def cmd_ssim_sweep(args) -> int:
    defaults = {
        "heights": [96, 384],
        "up_factors": [1.0, 2.0, 3.0, 4.0],
        "count": 20,
        "kind": "checkerboard",
        "seed": 0,
        "width": None,
    }
    cfg = _merge(
        defaults,
        args.config,
        {
            "heights": _ints(args.heights) if args.heights else None,
            "up_factors": _floats(args.up_factors) if args.up_factors else None,
            "count": args.count,
            "kind": args.kind,
            "seed": args.seed,
            "width": args.width,
        },
    )
    _check_sweep_types(cfg)
    if cfg["count"] < 1:
        raise ConfigError(f"corpus count must be >= 1, got {cfg['count']}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["height,up_factor,mean_ssim,n"]
    rows = []
    for height in cfg["heights"]:
        width = cfg["width"] or height
        corpus = synth_corpus(cfg["kind"], cfg["count"], height, width, cfg["seed"])
        for up in cfg["up_factors"]:
            values = [log_polar_roundtrip_ssim(img, float(up)) for img in corpus]
            mean = math.fsum(values) / len(values)
            rows.append({"height": height, "up_factor": float(up), "mean_ssim": mean, "n": len(values)})
            lines.append(f"{height},{format(float(up), '.12g')},{format(mean, '.17g')},{len(values)}")
    csv_text = "\n".join(lines) + "\n"
    (out_dir / "ssim_sweep.csv").write_text(csv_text)
    if args.format == "json":
        (out_dir / "ssim_sweep.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    _echo_config(out_dir, "ssim_sweep", cfg)
    print(f"ssim sweep: {len(rows)} rows -> {out_dir / 'ssim_sweep.csv'}")
    return 0


def cmd_equiv(args) -> int:
    if args.config:
        config = EquivConfig.from_json(Path(args.config).read_text())
    else:
        config = EquivConfig()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_experiment(config)
    report.write_csv(out_dir / "equiv_report.csv")
    if args.format == "json":
        report.write_json(out_dir / "equiv_report.json")
    _echo_config(out_dir, "equiv", config.to_dict())
    if args.maps:
        maps_dir = out_dir / "maps"
        maps_dir.mkdir(exist_ok=True)
        for (kind, block), grid in report.maps.items():
            write_pgm(maps_dir / f"error_{kind}_block{block}.pgm", grid)
    print(f"equivariance report: {len(report.rows)} rows -> {out_dir / 'equiv_report.csv'}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(corrupt=args.corrupt)
    failures = [(name, msg) for name, msg in results if msg is not None]
    for name, msg in results:
        print(f"{'FAIL' if msg else 'ok':4s} {name}" + (f": {msg}" if msg else ""))
    if failures:
        print(f"selftest: {len(failures)} of {len(results)} checks failed")
        return 1
    print(f"selftest: all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seslab",
        description="Scale-equivariant steerable convolution experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="write a steerable basis tensor + sidecar")
    p.add_argument("--alpha", type=float, default=None, help="downscaling parameter (default 0.1)")
    p.add_argument("--scales", type=int, default=None, help="number of scales, 1..3 (default 3)")
    p.add_argument("--order", type=int, default=None, help="max Hermite order per axis (default 6)")
    p.add_argument("--k", type=int, default=None, help="odd filter extent (default 7)")
    p.add_argument("--sigma-base", dest="sigma_base", type=float, default=None,
                   help="multiply every sigma by this base width (default 1.0)")
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument("--out", required=True, help="output tensor path")
    p.add_argument("--out-dir", default=".", help="directory for the config echo")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("warp", help="warp a PGM image by a geometric mapping")
    p.add_argument("--image", required=True, help="input PGM image")
    p.add_argument("--mode", required=True, choices=["projective", "scale", "logpolar", "invlogpolar"])
    p.add_argument("--plane", default=None, help="JSON file {m, n, o, p}")
    p.add_argument("--motion", default=None, help="JSON file {R (optional), t}")
    p.add_argument("--intrinsics", default=None, help="JSON file {f, u0, v0, width, height}")
    p.add_argument("--out-shape", default=None, help="H,W target for invlogpolar")
    p.add_argument("--r-min", dest="r_min", type=float, default=1.0, help="log-polar inner radius")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--out-dir", default=".", help="directory for metrics and config echo")
    p.set_defaults(fn=cmd_warp)

    p = sub.add_parser("ssim-sweep", help="log-polar roundtrip SSIM over a corpus")
    p.add_argument("--heights", default=None, help="comma-separated image heights")
    p.add_argument("--up-factors", dest="up_factors", default=None, help="comma-separated upscale factors")
    p.add_argument("--count", type=int, default=None, help="corpus size per height")
    p.add_argument("--kind", default=None, help="synthetic corpus kind")
    p.add_argument("--width", type=int, default=None, help="corpus width (default: square)")
    p.add_argument("--seed", type=int, default=None, help="corpus master seed")
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(fn=cmd_ssim_sweep)

    p = sub.add_parser("equiv", help="equivariance-error experiment (ses vs vanilla)")
    p.add_argument("--config", default=None, help="JSON EquivConfig (default: built-in)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--maps", action="store_true", help="also write per-block error-map PGMs")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("selftest", help="run the fast invariant suite")
    p.add_argument("--corrupt", choices=["basis-norm"], default=None,
                   help="test hook: corrupt an invariant to verify detection")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, OSError) as exc:
        print(f"seslab: i/o error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DegenerateGeometryError) as exc:
        print(f"seslab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"seslab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SeslabError as exc:
        print(f"seslab: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
