"""Command-line pipeline: synth, train, prune, register, eval, plus the
gradient self-check and a graph inspector.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O or file-format failure. Every command is deterministic given its
inputs and seeds; no output embeds a timestamp.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from defreg.config import (PipelineConfig, load_config, scnet_config, solver_config,
                           train_config, with_seed)
from defreg.consistency import local_consistency, read_corr_csv, write_corr_csv
from defreg.defgraph import build_graph, format_graph_dump
from defreg.errors import (FileFormatError, NumericalError, ValidationError, format_row,
                           parse_rows, read_document, read_lines, write_lines)
from defreg.evalmetrics import (classification_metrics, format_metrics_table, metrics_from_errors,
                                registration_errors, registration_metrics, write_metrics_csv)
from defreg.geometry import PointCloud
from defreg.nicp import read_warp_field, solve, write_warp_field
from defreg.pointcloud_io import read_ply, read_xyz, write_ply
from defreg.scnet.model import ScNetModel, classify, run_forward
from defreg.scnet.params_io import load_params, save_params
from defreg.synth import SceneSpec, generate_scene, write_scene_bundle
from defreg.training import gradient_check, prepare_scene, train, write_loss_log

GRADCHECK_THRESHOLD = 1e-4
TRACE_HEADER = "iteration,cost"

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defreg",
        description="Outlier pruning and non-rigid registration for point-cloud correspondences.",
    )
    parser.add_argument("--config", metavar="FILE", help="pipeline config JSON")
    parser.add_argument("--seed", type=int, help="override every seed (scene, model, training)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate one synthetic scene bundle")
    p.add_argument("spec", help="scene spec JSON file")
    p.add_argument("--out", required=True, help="output bundle directory")

    p = sub.add_parser("train", help="train the pruning network on scene bundles")
    p.add_argument("--data", required=True, help="directory of scene bundle subdirectories")
    p.add_argument("--out", required=True, help="output model parameter file")
    p.add_argument("--loss-log", help="loss CSV path (default: <out>.loss.csv)")

    p = sub.add_parser("prune", help="score correspondences and keep predicted inliers")
    p.add_argument("--corr", required=True, help="correspondence CSV")
    p.add_argument("--model", required=True, help="trained model parameter file")
    p.add_argument("--out", required=True, help="filtered correspondence CSV")
    p.add_argument("--scores", help="scores CSV path (default: scores.csv beside --out)")

    p = sub.add_parser("register", help="fit a warp field to correspondences")
    p.add_argument("--corr", required=True, help="correspondence CSV")
    p.add_argument("--source", required=True, help="source cloud PLY")
    p.add_argument("--out", required=True, help="output warp field file")
    p.add_argument("--warped", help="warped source PLY (default: warped.ply beside --out)")
    p.add_argument("--trace", help="cost trace CSV (default: cost-trace.csv beside --out)")
    p.add_argument("--gt", help="ground-truth warp field; prints EPE when given")

    p = sub.add_parser("eval", help="compare estimated warp fields against ground truth")
    p.add_argument("--pair", nargs=3, action="append", required=True,
                   metavar=("EST", "GT", "SOURCE"), help="estimated warp, true warp, source PLY")
    p.add_argument("--out-csv", help="write per-scene and pooled metrics CSV")
    p.add_argument("--histogram", help="write an error-histogram SVG")
    p.add_argument("--trace", help="cost trace CSV to check for monotonicity")

    p = sub.add_parser("gradcheck", help="finite-difference check of the training gradients")

    p = sub.add_parser("inspect-graph", help="dump the deformation graph of a cloud")
    p.add_argument("cloud", help="PLY/XYZ cloud or correspondence CSV (source side)")
    p.add_argument("--coverage", type=float, help="node coverage radius (default: prune_coverage)")
    p.add_argument("--assign-k", type=int, help="neighbors per point (default: prune_assign_k)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (FileFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        config = with_seed(config, args.seed)
    handlers = {
        "synth": _cmd_synth,
        "train": _cmd_train,
        "prune": _cmd_prune,
        "register": _cmd_register,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
        "inspect-graph": _cmd_inspect_graph,
    }
    return handlers[args.command](args, config)


def _cmd_synth(args, config: PipelineConfig) -> int:
    spec = read_document(SceneSpec, args.spec, "scene")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    source, target, gt_warp, corr = generate_scene(
        spec, config.solver_coverage, config.solver_assign_k
    )
    write_scene_bundle(args.out, spec, source, target, gt_warp, corr)
    inliers = int(corr.labels.sum())
    print(f"scene written to {args.out}: {len(corr)} correspondences, "
          f"{inliers} inliers, {spec.warp_kind} warp over {gt_warp.graph.num_nodes} nodes")
    return 0


def _scan_bundles(data_dir):
    try:
        names = sorted(os.listdir(data_dir))
    except FileNotFoundError as exc:
        raise FileFormatError(f"no such dataset directory: {data_dir}") from exc
    dirs = [os.path.join(data_dir, n) for n in names
            if os.path.isfile(os.path.join(data_dir, n, "corr.csv"))]
    if not dirs:
        raise ValidationError(f"no scene bundles (subdirectories with corr.csv) in {data_dir}")
    return dirs


def _cmd_train(args, config: PipelineConfig) -> int:
    dataset = []
    for scene_dir in _scan_bundles(args.data):
        corr = read_corr_csv(os.path.join(scene_dir, "corr.csv"))
        if corr.labels is None:
            raise ValidationError(f"{scene_dir}/corr.csv has no label column")
        dataset.append(prepare_scene(
            corr, config.prune_coverage, config.prune_assign_k, config.consistency_sigma
        ))
    model = ScNetModel(scnet_config(config))
    log, _ = train(model, dataset, train_config(config))
    save_params(args.out, model)
    write_loss_log(args.loss_log or args.out + ".loss.csv", log)
    final = log[-1]
    print(f"trained on {len(dataset)} scenes for {len(log)} epochs; "
          f"final mean loss {float(final[1])!r} (cls {float(final[2])!r}, con {float(final[3])!r})")
    return 0


def _cmd_prune(args, config: PipelineConfig) -> int:
    corr = read_corr_csv(args.corr)
    model = ScNetModel(scnet_config(config))
    load_params(args.model, model)
    graph = build_graph(corr.source, config.prune_coverage, config.prune_assign_k)
    theta = local_consistency(corr, graph, config.consistency_sigma)
    state = run_forward(model, corr, graph, theta)
    keep = classify(state.scores, config.score_threshold)
    kept = corr.take(keep)
    kept = replace(kept, scores=state.scores[keep])
    write_corr_csv(args.out, kept)
    scores_path = args.scores or os.path.join(os.path.dirname(args.out) or ".", "scores.csv")
    write_lines(scores_path, chain(["index,score"], map(format_row, enumerate(state.scores))))
    print(f"kept {keep.size} of {len(corr)} correspondences "
          f"(threshold {config.score_threshold!r})")
    if corr.labels is not None:
        precision, recall = classification_metrics(keep, corr.labels)
        print(f"precision {float(precision)!r} recall {float(recall)!r}")
    return 0


def _cmd_register(args, config: PipelineConfig) -> int:
    corr = read_corr_csv(args.corr)
    source = read_ply(args.source)
    result = solve(corr, source, solver_config(config),
                   config.solver_coverage, config.solver_assign_k)
    write_warp_field(args.out, result.field)
    out_dir = os.path.dirname(args.out) or "."
    warped_path = args.warped or os.path.join(out_dir, "warped.ply")
    write_ply(warped_path, PointCloud(result.field.warp(source.points)))
    trace_path = args.trace or os.path.join(out_dir, "cost-trace.csv")
    write_lines(trace_path, [TRACE_HEADER, *map(format_row, enumerate(result.cost_trace))])
    print(f"registered {len(corr)} correspondences over "
          f"{result.field.graph.num_nodes} nodes in {len(result.cost_trace) - 1} accepted "
          f"steps, final cost {float(result.cost_trace[-1])!r}")
    if args.gt:
        report = registration_metrics(source, result.field, read_warp_field(args.gt))
        print(f"EPE vs ground truth: {float(report.epe)!r}")
    return 0


def _check_trace(path) -> int:
    lines = read_lines(path)
    if not lines or lines[0] != TRACE_HEADER:
        raise FileFormatError(f"{path} is not a cost trace")
    if len(lines) < 2:
        raise FileFormatError(f"{path}:2: no iteration 0 after the header")
    rows = ((n, line.split(",")) for n, line in enumerate(lines[1:], start=2))
    iterations, costs = parse_rows(rows, 2, path).T
    wrong = np.flatnonzero(iterations != np.arange(iterations.size))
    if wrong.size:
        k = int(wrong[0])
        raise FileFormatError(f"{path}:{k + 2}: expected iteration {k}, got {iterations[k]:g}")
    rises = np.flatnonzero(costs[1:] > costs[:-1])
    if rises.size:
        raise ValidationError(f"cost trace increases at iteration {rises[0] + 1}")
    return len(costs)


def _cmd_eval(args, config: PipelineConfig) -> int:
    rows = []
    pooled_err, pooled_motion = [], []
    for i, (est_path, gt_path, source_path) in enumerate(args.pair):
        est = read_warp_field(est_path)
        gt = read_warp_field(gt_path)
        source = read_ply(source_path)
        err, motion = registration_errors(source, est, gt)
        rows.append((f"pair{i}", metrics_from_errors(err, motion)))
        pooled_err.append(err)
        pooled_motion.append(motion)
    if len(rows) > 1:
        rows.append(("pooled", metrics_from_errors(
            np.concatenate(pooled_err), np.concatenate(pooled_motion)
        )))
    sys.stdout.write(format_metrics_table(rows))
    if args.out_csv:
        write_metrics_csv(args.out_csv, rows)
    if args.histogram:
        _write_svg_histogram(args.histogram, np.concatenate(pooled_err),
                             "end-point error (m)")
    if args.trace:
        entries = _check_trace(args.trace)
        print(f"cost trace OK: {entries} entries, non-increasing")
    return 0


def _cmd_gradcheck(args, config: PipelineConfig) -> int:
    seed = args.seed if args.seed is not None else 0
    err = gradient_check(seed)
    print(f"gradcheck max relative error: {err!r} (threshold {GRADCHECK_THRESHOLD!r})")
    if err < GRADCHECK_THRESHOLD:
        print("PASS")
        return 0
    print("FAIL")
    raise NumericalError(f"gradient check failed: {err!r} >= {GRADCHECK_THRESHOLD!r}")


def _cmd_inspect_graph(args, config: PipelineConfig) -> int:
    path = args.cloud
    if path.endswith(".csv"):
        points = read_corr_csv(path).source
    elif path.endswith(".xyz"):
        points = read_xyz(path).points
    else:
        points = read_ply(path).points
    coverage = args.coverage if args.coverage is not None else config.prune_coverage
    assign_k = args.assign_k if args.assign_k is not None else config.prune_assign_k
    graph = build_graph(points, coverage, assign_k)
    sys.stdout.write(format_graph_dump(graph))
    return 0


def _write_svg_histogram(path, values: np.ndarray, title: str, bins: int = 20) -> None:
    """Static SVG bar chart of a value distribution; no external assets."""
    counts, edges = np.histogram(values, bins=bins)
    width, height = 480, 320
    left, right, top, bottom = 50, 10, 30, 40
    plot_w = width - left - right
    plot_h = height - top - bottom
    peak = max(int(counts.max()), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-family="monospace" '
        f'font-size="13">{title}</text>',
    ]
    bar_w = plot_w / bins
    for i, count in enumerate(counts):
        bar_h = plot_h * count / peak
        x = left + i * bar_w
        y = top + plot_h - bar_h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{bar_h:.2f}" '
            f'fill="steelblue" stroke="white" stroke-width="0.5"/>'
        )
    axis_y = top + plot_h
    parts.append(f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" y2="{axis_y}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{axis_y}" stroke="black"/>')
    parts.append(f'<text x="{left}" y="{height - 10}" text-anchor="middle" '
                 f'font-family="monospace" font-size="11">{edges[0]:.4g}</text>')
    parts.append(f'<text x="{left + plot_w}" y="{height - 10}" text-anchor="middle" '
                 f'font-family="monospace" font-size="11">{edges[-1]:.4g}</text>')
    parts.append(f'<text x="{left - 8}" y="{top + 4}" text-anchor="end" '
                 f'font-family="monospace" font-size="11">{peak}</text>')
    parts.append(f'<text x="{left - 8}" y="{axis_y}" text-anchor="end" '
                 f'font-family="monospace" font-size="11">0</text>')
    parts.append("</svg>")
    write_lines(path, parts)


if __name__ == "__main__":
    sys.exit(main())
