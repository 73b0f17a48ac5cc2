"""Command-line pipeline driver.

Subcommands expose each stage (rectify, match, adjust, report) plus an
end-to-end ``pipeline`` with persisted, resumable intermediates and a
``synth`` generator for reproducible test datasets.

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import adjust as adjust_mod
from . import match as match_mod
from . import rectify as rectify_mod
from . import synth as synth_mod
from . import textfile
from . import tracks as tracks_mod
from .errors import ConfigInvalid, DataError, NumericalError, ParseError
from .match import MatchParams
from .raster import pgm_shape, read_pgm
from .rpc import load_rpc_file


@dataclass
class PipelineConfig:
    """All pipeline knobs; defaults are the method's stated values."""

    overlap_threshold: float = match_mod.OVERLAP_THRESHOLD
    epipolar_buffer_px: float = MatchParams.epipolar_buffer_px
    ratio_threshold: float = MatchParams.ratio_threshold
    reproj_filter_px: float = MatchParams.reproj_filter_px
    convergence_px: float = adjust_mod.CONVERGENCE_PX
    max_iter: int = adjust_mod.MAX_ITER
    window: int = MatchParams.window
    blocks: int = MatchParams.blocks
    fast_threshold: float = MatchParams.fast_threshold
    nms_radius: float = MatchParams.nms_radius
    nodata: int = 0
    threads: int = 1

    def __post_init__(self):
        for name in ("overlap_threshold", "convergence_px"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigInvalid(f"{name} must be positive and finite")
        if self.max_iter < 1 or self.threads < 1:
            raise ConfigInvalid("max_iter and threads must be >= 1")
        if self.nodata < 0:
            raise ConfigInvalid("nodata must be >= 0")
        try:
            self.match_params()
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None

    def match_params(self) -> MatchParams:
        return MatchParams(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(MatchParams)})

    def knobs(self) -> dict:
        """Every field but ``threads``, which changes no output."""
        knobs = dataclasses.asdict(self)
        del knobs["threads"]
        return knobs

    def describe(self) -> str:
        return " ".join(f"{k}={v!r}" for k, v in self.knobs().items())


def load_config(path) -> dict:
    """Parse a ``key = value`` config file into a raw override dict.

    Raises:
        ParseError: malformed line.
        ConfigInvalid: unknown key or uncoercible value.
    """
    names = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    overrides = {}
    with textfile.open_text(path) as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in names:
                raise ConfigInvalid(f"{path}:{line_no}: unknown config key "
                                    f"{key!r}")
            caster = int if names[key] in (int, "int") else float
            try:
                overrides[key] = caster(value)
            except ValueError:
                raise ConfigInvalid(
                    f"{path}:{line_no}: cannot parse {value!r} for {key}"
                ) from None
    return overrides


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, overridden by a config file, overridden by flags."""
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(load_config(args.config))
    for f in dataclasses.fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return PipelineConfig(**overrides)


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def _map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on a pool of ``threads`` workers
    when that is above one; the results stay in input order."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _input_stems(paths: list[str]) -> list[str]:
    stems = []
    for path in paths:
        stem = path[:-4] if path.endswith((".pgm", ".rpc")) else path
        if stem not in stems:
            stems.append(stem)
    return stems


def cmd_rectify(inputs: list[str], out_dir: str,
                config: PipelineConfig) -> list[str]:
    """Rectify raw image/RPC pairs; returns the product stems written."""
    stems = _input_stems(inputs)
    if not stems:
        raise ConfigInvalid("no input images given")
    rpcs = [load_rpc_file(stem + ".rpc") for stem in stems]
    plane = rectify_mod.common_plane_height(rpcs)
    # the sampling distance needs only each raster's checked header, so
    # faults show before products/ exists; pixels are read once, to rectify
    gsd = rectify_mod.common_gsd(
        [(pgm_shape(stem + ".pgm", nodata=config.nodata), rpc)
         for stem, rpc in zip(stems, rpcs)], plane)
    os.makedirs(out_dir, exist_ok=True)

    def run(item):
        stem, rpc = item
        product = rectify_mod.rectify_image(
            read_pgm(stem + ".pgm", nodata=config.nodata), rpc, plane, gsd)
        out_stem = os.path.join(out_dir, os.path.basename(stem))
        rectify_mod.save_product(product, out_stem)
        return out_stem

    out_stems = _map(run, zip(stems, rpcs), config.threads)
    print(f"rectified {len(out_stems)} image(s) onto plane "
          f"{plane:.3f} m at {gsd:.3f} m/px")
    return out_stems


def _product_stems(products_dir: str) -> list[str]:
    """The products' stems, in sorted ``.meta`` order."""
    metas = sorted(
        name for name in os.listdir(products_dir) if name.endswith(".meta")
    )
    if not metas:
        raise ConfigInvalid(f"no level-2 products (*.meta) in "
                            f"{products_dir}")
    return [os.path.join(products_dir, m[:-5]) for m in metas]


def cmd_match(products_dir: str, out_dir: str,
              config: PipelineConfig) -> tuple[str, str]:
    """Match all overlapping pairs and build tracks; returns file paths."""
    products = [rectify_mod.load_product(stem)
                for stem in _product_stems(products_dir)]
    for product in products:
        product.rpc.validate()
    params = config.match_params()
    pairs = match_mod.select_pairs(products, config.overlap_threshold)

    def describe(i):
        raster = products[i].raster
        return match_mod.describe_features(
            raster, match_mod.detect_corners(raster, params.fast_threshold,
                                             params.nms_radius),
            params.window, params.blocks)

    needed = sorted({i for pair in pairs for i in pair})
    described = dict(zip(needed, _map(describe, needed, config.threads)))

    def run(pair):
        i, j = pair
        (lf, lb), (rf, rb) = described[i], described[j]
        matches = match_mod.match_pair(
            products[i], products[j], params, left_features=lf, left_bits=lb,
            right_features=rf, right_bits=rb)
        return products[i].image_id, products[j].image_id, matches

    per_pair = _map(run, pairs, config.threads)
    os.makedirs(out_dir, exist_ok=True)
    corr_path = os.path.join(out_dir, "correspondences.txt")
    match_mod.save_correspondences(per_pair, corr_path,
                                   header=config.describe())
    table = tracks_mod.TrackTable.from_tracks(
        tracks_mod.build_tracks(per_pair))
    track_path = os.path.join(out_dir, "tracks.txt")
    tracks_mod.save_tracks(table, track_path, header=config.describe())
    stats = tracks_mod.track_stats(table)
    n_matches = sum(len(matches) for *_, matches in per_pair)
    print(f"matched {len(pairs)} pair(s): {n_matches} correspondences, "
          f"{len(table)} tracks {stats}")
    return corr_path, track_path


def _format_table(before: adjust_mod.ReprojectionReport,
                  after: adjust_mod.ReprojectionReport) -> str:
    columns = ("avg_x", "avg_y", "avg_xy", "max_x", "max_y", "max_xy")
    lines = ["        " + "".join(f"{c:>9s}" for c in columns)]
    for label, rep in (("Before", before), ("After", after)):
        values = "".join(f"{getattr(rep, c):9.3f}" for c in columns)
        lines.append(f"{label:8s}{values}")
    return "\n".join(lines)


def _report_dict(rep: adjust_mod.ReprojectionReport) -> dict:
    return {
        "avg_x": round(rep.avg_x, 3), "avg_y": round(rep.avg_y, 3),
        "avg_xy": round(rep.avg_xy, 3), "max_x": round(rep.max_x, 3),
        "max_y": round(rep.max_y, 3), "max_xy": round(rep.max_xy, 3),
        "per_image_avg_xy": {k: round(v, 3)
                             for k, v in rep.per_image_avg_xy.items()},
        "count": rep.count,
    }


def _assemble(track_path: str, products_dir: str,
              gcp_path: str | None) -> adjust_mod.ObservationGraph:
    """The observation graph of the stored tracks over the products,
    whose models are read from their sidecars; no raster is read."""
    images = [(os.path.basename(stem), load_rpc_file(stem + ".meta"))
              for stem in _product_stems(products_dir)]
    table = tracks_mod.load_tracks(track_path)
    gcps = tracks_mod.load_gcps(gcp_path) if gcp_path else None
    return adjust_mod.assemble(images, table, gcps)


def cmd_adjust(track_path: str, products_dir: str, out_dir: str,
               config: PipelineConfig, gcp_path: str | None = None) -> str:
    """Run the bundle adjustment; writes biases and the metric report."""
    graph = _assemble(track_path, products_dir, gcp_path)
    if len(graph.track_start) == 1:
        raise ConfigInvalid("no usable tracks; nothing to adjust")
    if not graph.has_gcp:
        print(f"free network: no GCPs given, biases are relative to the "
              f"gauge image {graph.images[0][0]}")
    result = adjust_mod.adjust_loop(graph, tol=config.convergence_px,
                                    max_iter=config.max_iter)

    os.makedirs(out_dir, exist_ok=True)
    bias_path = os.path.join(out_dir, "biases.txt")
    adjust_mod.save_biases(graph, bias_path, header=config.describe())
    table = _format_table(result.before, result.after)
    summary = (f"iterations: {result.iterations}  "
               f"converged: {result.converged}")
    with open(os.path.join(out_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(table + "\n" + summary + "\n")
    payload = {
        "before": _report_dict(result.before),
        "after": _report_dict(result.after),
        "iterations": result.iterations,
        "converged": result.converged,
        "history": [round(h, 6) for h in result.history],
        "biases": {image_id: bias for (image_id, _), bias
                   in zip(graph.images, graph.bias.tolist())},
        "gauge_image": None if graph.has_gcp else graph.images[0][0],
        "config": config.knobs(),
    }
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(table)
    print(summary)
    return bias_path


def cmd_pipeline(inputs: list[str], out_dir: str, config: PipelineConfig,
                 gcp_path: str | None = None, resume: bool = False) -> None:
    """rectify -> match -> adjust with resumable staged intermediates."""
    products_dir = os.path.join(out_dir, "products")
    track_path = os.path.join(out_dir, "tracks.txt")
    report_path = os.path.join(out_dir, "report.json")

    def stage_done(*paths):
        return resume and all(os.path.exists(p) for p in paths)

    if stage_done(products_dir):
        print("resume: products exist, skipping rectification")
    else:
        cmd_rectify(inputs, products_dir, config)
    if stage_done(track_path):
        print("resume: tracks exist, skipping matching")
    else:
        cmd_match(products_dir, out_dir, config)
    if stage_done(report_path):
        print("resume: report exists, skipping adjustment")
    else:
        cmd_adjust(track_path, products_dir, out_dir, config, gcp_path)


def cmd_report(track_path: str, products_dir: str, bias_path: str | None,
               gcp_path: str | None = None) -> None:
    """Recompute the metric table for stored tracks and biases; GCP
    tracks keep their surveyed grounds, as in :func:`cmd_adjust`.

    Raises:
        ConfigInvalid: the bias file names an image that is not among
            the products, or lacks one that is.
    """
    graph = _assemble(track_path, products_dir, gcp_path)
    before = adjust_mod.report(graph)
    if bias_path:
        biases = adjust_mod.load_biases(bias_path)
        for image_id in biases:
            if image_id not in graph.index:
                raise ConfigInvalid(f"{bias_path}: image {image_id} is not "
                                    f"among the products")
        for image_id, i in graph.index.items():
            if image_id not in biases:
                raise ConfigInvalid(f"{bias_path}: no bias for image "
                                    f"{image_id}")
            graph.bias[i] = biases[image_id].d_row, biases[image_id].d_col
        adjust_mod.update_points(graph)
    after = adjust_mod.report(graph)
    print(_format_table(before, after))


def cmd_synth(args: argparse.Namespace) -> None:
    # Rendered scenes default to a small raster-friendly footprint;
    # metadata-only scenes to the generator's full-block extent.
    half_extent = args.half_extent
    if half_extent is None:
        half_extent = (synth_mod.RENDERED_HALF_EXTENT_M if args.render
                       else synth_mod.HALF_EXTENT_M)
    scene = synth_mod.gen_scene(
        n_images=args.images, n_points=args.points,
        bias_range_px=args.bias_range, noise_sigma_px=args.noise,
        seed=args.seed, render=args.render, visibility=args.visibility,
        half_extent_m=half_extent,
    )
    synth_mod.save_scene(scene, args.out)
    print(f"wrote scene with {args.images} image(s), {args.points} "
          f"point(s) to {args.out}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 (2 is reserved for data)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--threads", type=int, help="worker cap; no "
                        "output depends on it")
    for f in dataclasses.fields(PipelineConfig):
        if f.name == "threads":
            continue
        caster = int if f.type in (int, "int") else float
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=caster,
                            dest=f.name, help=argparse.SUPPRESS)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="satadjust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("rectify", help="resample images onto the common "
                       "height plane")
    p.add_argument("inputs", nargs="+", help="image stems (stem.pgm + "
                   "stem.rpc)")
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("match", help="match tie points between products")
    p.add_argument("--products", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("adjust", help="solve per-image bias corrections")
    p.add_argument("--tracks", required=True)
    p.add_argument("--products", required=True)
    p.add_argument("--gcps")
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("pipeline", help="rectify, match and adjust")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--gcps")
    p.add_argument("--resume", action="store_true",
                   help="skip stages whose outputs already exist")
    _add_config_flags(p)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--images", type=int, default=5)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--bias-range", type=float, default=10.0)
    p.add_argument("--noise", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--render", action="store_true")
    p.add_argument("--visibility", choices=("full", "random"),
                   default="full")
    p.add_argument("--half-extent", type=float, default=None,
                   help=f"footprint half extent in meters (default "
                        f"{synth_mod.RENDERED_HALF_EXTENT_M:g} rendered, "
                        f"{synth_mod.HALF_EXTENT_M:g} otherwise)")

    p = sub.add_parser("report", help="recompute metrics for stored "
                       "tracks/biases")
    p.add_argument("--tracks", required=True)
    p.add_argument("--products", required=True)
    p.add_argument("--biases")
    p.add_argument("--gcps")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            cmd_synth(args)
            return 0
        config = (build_config(args)
                  if args.command != "report" else None)
        if args.command == "rectify":
            cmd_rectify(args.inputs, args.out, config)
        elif args.command == "match":
            cmd_match(args.products, args.out, config)
        elif args.command == "adjust":
            cmd_adjust(args.tracks, args.products, args.out, config,
                       args.gcps)
        elif args.command == "pipeline":
            cmd_pipeline(args.inputs, args.out, config, args.gcps,
                         args.resume)
        elif args.command == "report":
            cmd_report(args.tracks, args.products, args.biases, args.gcps)
        return 0
    except (DataError, OSError) as exc:
        print(f"satadjust: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"satadjust: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
