"""Command-line interface: every experiment as a reproducible subcommand.

Exit codes: 0 on success, 1 on runtime or I/O failure, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import build_basis, check_basis_fits, check_scale_count, save_basis, scale_set_from_alpha
from .errors import ConfigError, FormatError, SeslabError, as_real, check_fields, dump, load
from .fileio import read_pgm, read_pgm_header, write_json, write_pgm, write_pgm_scratch
from .geometry import (
    CameraIntrinsics,
    EgoMotion,
    PatchPlane,
    _inverse_mapping,
    _log_polar_mapping,
    check_up_factor,
    corollary_deviation,
    inverse_log_polar,
    log_polar,
    log_polar_roundtrip_ssim,
    parallel_bound,
    projective_mapping,
    scale_factor,
    scale_mapping,
)
from .grid import check_fits_memory
from .harness import CorpusSpec, EquivConfig, run_experiment
from .resample import _check_extents, warp, warp_scratch
from .ssim import WINDOW_SIZE


def _echo_config(out_dir: Path, name: str, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / f"{name}_config.json", payload)


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8; nesting too deep
        raise ConfigError(f"{path}: malformed JSON: {exc}") from None


def _load_config(cls, config_path, **flags):
    """``cls`` loaded from the JSON config file, if any; flags that are not None beat its values."""
    values = _load_json(config_path) if config_path else {}
    if isinstance(values, dict):
        values = {**values, **{key: value for key, value in flags.items() if value is not None}}
    return load(cls, values)


def _numbers(text: str, flag: str, parse, what: str) -> list:
    """The comma- or space-separated values of ``flag``, each read by
    ``parse``; raises ConfigError naming the flag and echoing ``text`` if one
    does not parse."""
    try:
        return [parse(tok) for tok in str(text).replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{flag} must be {what} separated by commas, got {text!r}") from None


def _ints(text: str, flag: str) -> list:
    return _numbers(text, flag, int, "integers")


def _floats(text: str, flag: str) -> list:
    return _numbers(text, flag, float, "reals")


@dataclass(frozen=True)
class BasisConfig:
    """Settings of ``seslab basis``."""

    alpha: float = 0.1
    scales: int = 3
    order: int = 6
    k: int = 7
    sigma_base: float = 1.0

    def __post_init__(self):
        check_fields(self)
        check_scale_count("scales", self.scales)
        if not self.sigma_base > 0:
            raise ConfigError(f"sigma_base must be positive, got {self.sigma_base}")


def cmd_basis(args) -> int:
    cfg = _load_config(
        BasisConfig,
        args.config,
        alpha=args.alpha,
        scales=args.scales,
        order=args.order,
        k=args.k,
        sigma_base=args.sigma_base,
    )
    scale_set = scale_set_from_alpha(cfg.alpha, cfg.scales).scaled(cfg.sigma_base)
    check_basis_fits(cfg.scales, cfg.order, cfg.k)  # here, not under the sigma_base re-wrap below
    try:
        basis = build_basis(scale_set, max_order=cfg.order, k=cfg.k)
    except ConfigError as exc:
        raise ConfigError(f"sigma_base {cfg.sigma_base}: {exc}") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_basis(out, basis)
    _echo_config(Path(args.out_dir), "basis", {**dump(cfg), "out": str(out)})
    print(f"basis shape {list(basis.filters.shape)} -> {out}")
    return 0


def cmd_warp(args) -> int:
    """Every argument that needs no pixel is checked before ``read_pgm``
    decodes the image."""
    height, width = read_pgm_header(args.image)
    h, w = height, width
    if args.mode == "invlogpolar":
        if not args.out_shape:
            raise ConfigError("mode invlogpolar needs --out-shape H,W")
        try:
            h, w = _ints(args.out_shape, "--out-shape")
        except ValueError:  # not two integers
            raise ConfigError(f"--out-shape must be two integers H,W, got {args.out_shape!r}") from None
        _check_extents("--out-shape", h, w)
    elif args.out_shape is not None:
        raise ConfigError(f"--out-shape is for mode invlogpolar only, got mode {args.mode}")
    # The input and output, then the warp's scratch or, once it returns and the
    # input is freed, the encoder's.
    separable = args.mode == "scale"
    check_fits_memory(
        as_real(height) * as_real(width) + as_real(h) * as_real(w)
        + max(warp_scratch((height, width), (h, w), separable), write_pgm_scratch(h, w)),
        f"out_shape {reprlib.repr(h)}x{reprlib.repr(w)} of the {args.mode} warp of image {args.image} of "
        f"{height}x{width} (the input, {2 + separable} output frames and the sampler's blocks)",
    )
    metrics: dict = {"mode": args.mode}
    intr = None
    if args.intrinsics:
        intr = load(CameraIntrinsics, _load_json(args.intrinsics), "intrinsics")
    center = None if intr is None else (intr.v0, intr.u0)
    if args.mode in ("projective", "scale"):
        if not (args.plane and args.motion and intr):
            raise ConfigError(f"mode {args.mode} needs --plane, --motion, and --intrinsics")
        plane = load(PatchPlane, _load_json(args.plane), "plane")
        motion = EgoMotion.from_dict(_load_json(args.motion))
        if height > intr.height or width > intr.width:
            raise ConfigError(
                f"image {args.image} of {height}x{width} reaches past the intrinsics' "
                f"{intr.height}x{intr.width} grid, on which the {args.mode} map is checked"
            )
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
    else:  # the warp's own mapping refuses the frame, r_min and a one-column grid
        polar = _log_polar_mapping if args.mode == "logpolar" else _inverse_mapping
        polar((height, width), (h, w), center, args.r_min)
    image = read_pgm(args.image)
    if args.mode == "logpolar":
        result = log_polar(image, center=center, r_min=args.r_min)
    elif args.mode == "invlogpolar":
        result = inverse_log_polar(image, (h, w), center=center, r_min=args.r_min)
    else:
        result = warp(image, mapping)
    del image  # freed before the encoder allocates
    out, out_dir = Path(args.out), Path(args.out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(out, result)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "warp_metrics.json", metrics)
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


@dataclass(frozen=True)
class SweepConfig:
    """Settings of ``seslab ssim-sweep``; a width of None makes square images.

    Each height's corpus is a ``CorpusSpec``. Every (height, up-factor) cell
    plans one image, the seed and SSIM values of every image, and the
    roundtrip, and all of them must fit in memory before any cell runs."""

    heights: tuple[int, ...] = (96, 384)
    up_factors: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    count: int = 20
    kind: str = "checkerboard"
    seed: int = 0
    width: int | None = None

    def __post_init__(self):
        check_fields(self)
        for name in ("heights", "up_factors"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must be distinct, got {reprlib.repr(values)}")
        extents = self.heights + (() if self.width is None else (self.width,))
        if min(extents, default=WINDOW_SIZE) < WINDOW_SIZE:
            raise ConfigError(
                f"heights and width must be >= {WINDOW_SIZE} (the SSIM window), got {reprlib.repr(extents)}"
            )
        per_image = 0.5 + len(self.up_factors)  # a 4-byte seed, half a double, and the SSIM values
        for corpus in map(self._corpus, self.heights):
            h, w = corpus.height, corpus.width
            for up in self.up_factors:
                check_fits_memory(
                    as_real(h) * as_real(w) + as_real(self.count) * per_image + check_up_factor((h, w), up),
                    f"one image of {reprlib.repr(h)}x{reprlib.repr(w)} at a time, a seed and an SSIM value per "
                    f"up_factor for each of {reprlib.repr(self.count)} images, and the up_factor {up:.6g} roundtrip",
                )

    def _corpus(self, height) -> CorpusSpec:
        return CorpusSpec(self.kind, self.count, height, height if self.width is None else self.width, self.seed)


def cmd_ssim_sweep(args) -> int:
    cfg = _load_config(
        SweepConfig,
        args.config,
        heights=_ints(args.heights, "--heights") if args.heights else None,
        up_factors=_floats(args.up_factors, "--up-factors") if args.up_factors else None,
        count=args.count,
        kind=args.kind,
        seed=args.seed,
        width=args.width,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines, rows = ["height,up_factor,mean_ssim,n"], []
    for height in cfg.heights:
        _, load = cfg._corpus(height).describe()
        values = np.empty((cfg.count, len(cfg.up_factors)))
        for i in range(cfg.count):
            image = load(i)
            values[i] = [log_polar_roundtrip_ssim(image, up) for up in cfg.up_factors]
            del image  # freed before the next load: the sweep holds one image
        for up, cell in zip(cfg.up_factors, values.T):
            mean = math.fsum(cell) / cfg.count
            rows.append({"height": height, "up_factor": up, "mean_ssim": mean, "n": cfg.count})
            lines.append(f"{height},{format(up, '.12g')},{format(mean, '.17g')},{cfg.count}")
    (out_dir / "ssim_sweep.csv").write_text("\n".join(lines) + "\n")
    if args.format == "json":
        write_json(out_dir / "ssim_sweep.json", rows)
    _echo_config(out_dir, "ssim_sweep", dump(cfg))
    print(f"ssim sweep: {len(rows)} rows -> {out_dir / 'ssim_sweep.csv'}")
    return 0


def cmd_equiv(args) -> int:
    config = _load_config(EquivConfig, args.config)
    report = run_experiment(config, maps=args.maps)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_csv(out_dir / "equiv_report.csv")
    if args.format == "json":
        report.write_json(out_dir / "equiv_report.json")
    _echo_config(out_dir, "equiv", dump(config))
    if args.maps:
        maps_dir = out_dir / "maps"
        maps_dir.mkdir(exist_ok=True)
        for (kind, block), grid in report.maps.items():
            write_pgm(maps_dir / f"error_{kind}_block{block}.pgm", grid)
    print(f"equivariance report: {len(report.rows)} rows -> {out_dir / 'equiv_report.csv'}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest()
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
    except ValueError as exc:  # ConfigError and DegenerateGeometryError among them
        print(f"seslab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SeslabError as exc:
        print(f"seslab: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
