"""The bytes every defreg writer produces, pinned, and a guard that every
text file is written through defreg.errors.

The pinned test writes one tiny fixed input through each writer (and
through `prune` and `register` for the scores and cost-trace CSVs) and
compares the files with the text below, and the binary parameter file
with its layout spelled out. Floats must come out as their
repr, which reads back bit for bit, labels as the digits 0 and 1, and
JSON documents with sorted keys and a 2-space indent.
"""

import ast
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from defreg import cli
from defreg.config import PipelineConfig, scnet_config
from defreg.consistency import CorrespondenceSet, write_corr_csv
from defreg.defgraph import build_graph
from defreg.errors import write_document
from defreg.evalmetrics import MetricsReport, write_metrics_csv
from defreg.geometry import PointCloud
from defreg.nicp import WarpField, write_warp_field
from defreg.pointcloud_io import write_ply
from defreg.scnet.model import ScNetModel
from defreg.scnet.params_io import save_params
from defreg.synth import SceneSpec, write_scene_bundle
from defreg.training import write_loss_log

SRC = Path(__file__).resolve().parents[1] / "src" / "defreg"

BIG = 1.7976931348623157e308

EXPECTED = {
    "corr.csv": """\
src_x,src_y,src_z,tgt_x,tgt_y,tgt_z,label,score
-0.0,5e-324,1.7976931348623157e+308,0.1,-2.5,3.0,1,0.25
1.0,0.0,0.0,-5e-324,-1.7976931348623157e+308,0.3333333333333333,0,1.0
""",
    "corr-plain.csv": """\
src_x,src_y,src_z,tgt_x,tgt_y,tgt_z
-0.0,5e-324,1.7976931348623157e+308,0.1,-2.5,3.0
1.0,0.0,0.0,-5e-324,-1.7976931348623157e+308,0.3333333333333333
""",
    "cloud.ply": """\
ply
format ascii 1.0
comment units meters
element vertex 2
property float x
property float y
property float z
end_header
-0.0 5e-324 1.7976931348623157e+308
1.0 0.0 0.0
""",
    "warp.txt": """\
warp-field nodes 2 coverage 0.5 assign_k 2
0.0 0.0 0.0 0.0 0.0 0.0 -0.0 5e-324 1.7976931348623157e+308
1.0 0.0 0.0 0.0 0.0 3.141592653589793 0.1 0.0 0.0
""",
    "metrics.csv": """\
scene,point_count,epe,acc_s,acc_r,outlier_ratio
pair0,60,0.25,0.5,1.0,0.3333333333333333
pooled,7,5e-324,0.1,0.2,0.3
""",
    "loss.csv": """\
epoch,mean_loss,mean_cls,mean_con,lr
0,0.5,0.25,0.3333333333333333,0.003
1,5e-324,-0.0,1.7976931348623157e+308,0.0027
""",
    "config.json": """\
{
  "augment": false,
  "consistency_sigma": 0.08,
  "cost_tolerance": 1e-06,
  "epochs": 40,
  "feature_dim": 16,
  "focal_gamma": 2.0,
  "lambda_corr": 25.0,
  "lambda_reg": 1.0,
  "leaky_slope": 0.01,
  "learning_rate": 5e-324,
  "loss_lambda": 1.0,
  "lr_decay_per_epoch": 0.05,
  "marquardt": 0.01,
  "max_iterations": 50,
  "model_seed": 0,
  "num_blocks": 1,
  "num_groups": 2,
  "prune_assign_k": 6,
  "prune_coverage": 0.08,
  "score_threshold": 0.4,
  "solver_assign_k": 6,
  "solver_coverage": 0.08,
  "step_tolerance": 1e-06,
  "train_seed": 0,
  "units_per_block": 1,
  "weight_decay": 1e-06
}
""",
    "bundle/spec.json": """\
{
  "inlier_noise_std": 0.005,
  "inlier_ratio": 0.5,
  "outlier_mode": "uniform-in-bbox",
  "point_count": 2,
  "seed": 7,
  "surface": "plane-grid",
  "warp_kind": "smooth-graph",
  "warp_magnitude": [
    0.2,
    0.05
  ]
}
""",
    "scores.csv": """\
index,score
0,0.5
1,0.5
2,0.5
""",
    "cost-trace.csv": """\
iteration,cost
0,0.0
""",
}


def test_every_writer_writes_pinned_bytes(tmp_path):
    source = np.array([[-0.0, 5e-324, BIG], [1.0, 0.0, 0.0]])
    target = np.array([[0.1, -2.5, 3.0], [-5e-324, -BIG, 1 / 3]])
    corr = CorrespondenceSet(source, target, np.array([1, 0], dtype=np.int8), np.array([0.25, 1.0]))
    write_corr_csv(tmp_path / "corr.csv", corr)
    write_corr_csv(tmp_path / "corr-plain.csv", CorrespondenceSet(source, target))
    write_ply(tmp_path / "cloud.ply", PointCloud(source))

    graph = build_graph(np.array([[0.0, 0, 0], [1.0, 0, 0]]), 0.5, 2)
    half_turn = np.diag([-1.0, -1.0, 1.0])  # pi about z
    field = WarpField(graph, np.stack([np.eye(3), half_turn]),
                      np.array([[-0.0, 5e-324, BIG], [0.1, 0.0, 0.0]]))
    write_warp_field(tmp_path / "warp.txt", field)

    write_metrics_csv(tmp_path / "metrics.csv", [
        ("pair0", MetricsReport(0.25, 0.5, 1.0, 1 / 3, 60)),
        ("pooled", MetricsReport(5e-324, 0.1, 0.2, 0.3, 7)),
    ])
    write_loss_log(tmp_path / "loss.csv", [(0, 0.5, 0.25, 1 / 3, 0.003),
                                           (1, 5e-324, -0.0, BIG, 0.0027)])
    config = PipelineConfig(feature_dim=16, num_blocks=1, units_per_block=1, num_groups=2,
                            learning_rate=5e-324)
    write_document(tmp_path / "config.json", asdict(config))
    write_scene_bundle(tmp_path / "bundle", SceneSpec(point_count=2, seed=7),
                       PointCloud(source), PointCloud(target), field, corr)

    # prune with an all-zero model scores every correspondence sigmoid(0);
    # register on correspondences that already agree stops at the identity
    model = ScNetModel(scnet_config(config))
    model.values[...] = 0.0
    save_params(tmp_path / "model.bin", model)
    points = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.0, 0.05, 0]])
    write_corr_csv(tmp_path / "aligned.csv", CorrespondenceSet(points, points))
    write_ply(tmp_path / "source.ply", PointCloud(points))
    assert cli.main(["--config", str(tmp_path / "config.json"), "prune",
                     "--corr", str(tmp_path / "aligned.csv"), "--model", str(tmp_path / "model.bin"),
                     "--out", str(tmp_path / "pruned.csv")]) == 0
    assert cli.main(["register", "--corr", str(tmp_path / "aligned.csv"),
                     "--source", str(tmp_path / "source.ply"),
                     "--out", str(tmp_path / "fitted.txt")]) == 0

    for name, text in EXPECTED.items():
        assert (tmp_path / name).read_bytes() == text.encode("ascii"), name

    # model.bin: magic, format version, descriptor length, the descriptor,
    # then the 2794 parameters as little-endian float32 zeros and nothing else
    descriptor = (b'{"feature_dim": 16, "head_widths": [8, 4, 1], "init_widths": [16, 16, 16], '
                  b'"leaky_slope": 0.01, "num_blocks": 1, "num_groups": 2, "units_per_block": 1}')
    assert (tmp_path / "model.bin").read_bytes() == (
        b"DEFREGNN" + struct.pack("<II", 1, len(descriptor)) + descriptor + bytes(4 * 2794))
    # and the descriptors of the default model and the README quick start's
    for document, descriptor in [
        (PipelineConfig(),
         b'{"feature_dim": 256, "head_widths": [128, 64, 1], "init_widths": [256, 256, 256], '
         b'"leaky_slope": 0.01, "num_blocks": 3, "num_groups": 8, "units_per_block": 2}'),
        (PipelineConfig(feature_dim=32, num_blocks=1, units_per_block=2, num_groups=2),
         b'{"feature_dim": 32, "head_widths": [16, 8, 1], "init_widths": [32, 32, 32], '
         b'"leaky_slope": 0.01, "num_blocks": 1, "num_groups": 2, "units_per_block": 2}'),
    ]:
        architecture = scnet_config(document).architecture()
        assert json.dumps(architecture, sort_keys=True).encode() == descriptor


def _text_write_opens(tree):
    """Line numbers of open() calls whose mode writes text."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        if not isinstance(mode, ast.Constant) or (
                "b" not in mode.value and any(c in mode.value for c in "wax+")):
            lines.append(node.lineno)
    return lines


def test_only_errors_opens_text_files_for_writing():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "errors.py" and path.parent == SRC:
            continue
        offenders += [f"{path.relative_to(SRC)}:{line}"
                      for line in _text_write_opens(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []
