"""End-to-end command-line pipeline: synth -> train -> prune -> register -> eval."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import defreg
from defreg.cli import main
from defreg.config import PipelineConfig, scnet_config
from defreg.consistency import CorrespondenceSet, write_corr_csv
from defreg.geometry import PointCloud
from defreg.pointcloud_io import write_ply
from defreg.scnet.model import ScNetConfig, ScNetModel
from defreg.scnet.params_io import save_params
from defreg.synth import SceneSpec, generate_scene

SCENE_SPEC = {
    "point_count": 60,
    "surface": "plane-grid",
    "warp_kind": "smooth-graph",
    "warp_magnitude": [0.2, 0.05],
    "inlier_ratio": 0.5,
    "inlier_noise_std": 0.005,
    "seed": 0,
}

SMALL_CONFIG = {
    "feature_dim": 16,
    "num_blocks": 1,
    "units_per_block": 1,
    "num_groups": 2,
    "epochs": 2,
    "learning_rate": 3e-3,
}


def _write_json(path, data):
    path.write_text(json.dumps(data) + "\n")
    return str(path)


@pytest.fixture
def spec_path(tmp_path):
    return _write_json(tmp_path / "spec.json", SCENE_SPEC)


@pytest.fixture
def config_path(tmp_path):
    return _write_json(tmp_path / "config.json", SMALL_CONFIG)


# ------------------------------------------------------------------ synth

def test_synth_writes_bundle(tmp_path, spec_path, capsys):
    out = tmp_path / "scene"
    assert main(["synth", spec_path, "--out", str(out)]) == 0
    for name in ("source.ply", "target.ply", "corr.csv", "warp.txt", "spec.json"):
        assert (out / name).is_file()
    message = capsys.readouterr().out
    assert "60 correspondences" in message
    assert "30 inliers" in message


def test_synth_reruns_byte_identical(tmp_path, spec_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "5", "synth", spec_path, "--out", str(a)]) == 0
    assert main(["--seed", "5", "synth", spec_path, "--out", str(b)]) == 0
    for name in ("source.ply", "target.ply", "corr.csv", "warp.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_rejects_bad_ratio(tmp_path, capsys):
    spec = dict(SCENE_SPEC, inlier_ratio=1.5)
    path = _write_json(tmp_path / "bad.json", spec)
    assert main(["synth", path, "--out", str(tmp_path / "x")]) == 2
    assert "inlier_ratio" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{oops", "bad scene file"),
        ("{\"seed\": 0\xe9}", "broken.json:1: non-ASCII byte"),
    ],
)
def test_synth_rejects_malformed_spec(tmp_path, capsys, text, fragment):
    path = tmp_path / "broken.json"
    path.write_bytes(text.encode("latin-1"))
    assert main(["synth", str(path), "--out", str(tmp_path / "x")]) == 4
    assert fragment in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == 4
    assert "i/o error" in capsys.readouterr().err


# --------------------------------------------------------------- pipeline

@pytest.fixture
def mini_dataset(tmp_path, spec_path):
    data = tmp_path / "data"
    for i in range(3):
        code = main(["--seed", str(100 + i), "synth", spec_path,
                     "--out", str(data / f"scene{i}")])
        assert code == 0
    return data


def test_full_pipeline(tmp_path, mini_dataset, config_path, capsys):
    model_path = tmp_path / "model.bin"
    assert main(["--config", config_path, "train", "--data", str(mini_dataset),
                 "--out", str(model_path)]) == 0
    assert model_path.is_file()
    loss_lines = (tmp_path / "model.bin.loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,mean_loss,mean_cls,mean_con,lr"
    assert len(loss_lines) == 1 + SMALL_CONFIG["epochs"]
    out = capsys.readouterr().out
    assert "trained on 3 scenes" in out

    scene = mini_dataset / "scene0"
    pruned = tmp_path / "pruned.csv"
    assert main(["--config", config_path, "prune", "--corr", str(scene / "corr.csv"),
                 "--model", str(model_path), "--out", str(pruned),
                 "--scores", str(tmp_path / "scores.csv")]) == 0
    out = capsys.readouterr().out
    assert "precision" in out and "recall" in out
    assert pruned.is_file()
    score_lines = (tmp_path / "scores.csv").read_text().splitlines()
    assert score_lines[0] == "index,score"
    assert len(score_lines) == 61  # one score per input correspondence

    warp = tmp_path / "warp.txt"
    trace = tmp_path / "trace.csv"
    assert main(["--config", config_path, "register", "--corr", str(pruned),
                 "--source", str(scene / "source.ply"), "--out", str(warp),
                 "--warped", str(tmp_path / "warped.ply"), "--trace", str(trace),
                 "--gt", str(scene / "warp.txt")]) == 0
    out = capsys.readouterr().out
    assert "EPE vs ground truth:" in out
    assert warp.is_file() and (tmp_path / "warped.ply").is_file()

    metrics_csv = tmp_path / "metrics.csv"
    svg = tmp_path / "hist.svg"
    assert main(["eval", "--pair", str(warp), str(scene / "warp.txt"),
                 str(scene / "source.ply"), "--out-csv", str(metrics_csv),
                 "--histogram", str(svg), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "EPE" in out  # table header
    assert "cost trace OK" in out
    assert metrics_csv.read_text().startswith("scene,point_count,epe")
    assert svg.read_text().startswith("<svg")


def test_train_rerun_is_byte_identical(tmp_path, mini_dataset, config_path):
    m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    for path in (m1, m2):
        assert main(["--config", config_path, "train", "--data", str(mini_dataset),
                     "--out", str(path)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    assert (tmp_path / "m1.bin.loss.csv").read_bytes() == (tmp_path / "m2.bin.loss.csv").read_bytes()


def test_train_value_beyond_float32_exits_3_keeping_old_file(tmp_path, mini_dataset, capsys):
    # one epoch at learning rate 1e40 ends on a finite loss with weights
    # near 1e40, which float32 cannot hold
    config = _write_json(tmp_path / "cfg.json", dict(SMALL_CONFIG, epochs=1, learning_rate=1e40))
    model_path = tmp_path / "model.bin"
    model_path.write_bytes(b"old model")
    with np.errstate(all="ignore"):
        code = main(["--config", config, "train", "--data", str(mini_dataset),
                     "--out", str(model_path)])
    assert code == 3
    assert "not finite in float32" in capsys.readouterr().err
    assert model_path.read_bytes() == b"old model"


def test_train_requires_labeled_bundles(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "empty"), "--out",
                 str(tmp_path / "m.bin")]) == 4
    assert "no such dataset directory" in capsys.readouterr().err


def test_train_names_a_bundle_without_labels(tmp_path, capsys):
    scene = tmp_path / "data" / "scene0"
    scene.mkdir(parents=True)
    src = np.random.default_rng(0).uniform(size=(12, 3))
    write_corr_csv(scene / "corr.csv", CorrespondenceSet(src, src + 0.01))
    assert main(["train", "--data", str(tmp_path / "data"), "--out",
                 str(tmp_path / "m.bin")]) == 2
    assert f"{scene}/corr.csv has no label column" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_eval_pools_multiple_pairs(tmp_path, mini_dataset, capsys):
    scene = mini_dataset / "scene1"
    args = ["eval"]
    for _ in range(2):
        args += ["--pair", str(scene / "warp.txt"), str(scene / "warp.txt"),
                 str(scene / "source.ply")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "pooled" in out
    assert "0.000" in out  # est == gt: EPE displays as 0.000


def test_eval_rejects_increasing_trace(tmp_path, mini_dataset, capsys):
    scene = mini_dataset / "scene0"
    trace = tmp_path / "bad-trace.csv"
    trace.write_text("iteration,cost\n0,1.0\n1,2.0\n")
    assert main(["eval", "--pair", str(scene / "warp.txt"), str(scene / "warp.txt"),
                 str(scene / "source.ply"), "--trace", str(trace)]) == 2
    assert "cost trace increases" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("something,else\n", "is not a cost trace"),
        ("iteration,cost\n0,1.0\n1,abc\n", "trace.csv:3: non-numeric value 'abc'"),
        ("iteration,cost\n0,1.0\n1,nan\n", "trace.csv:3: non-finite value"),
        ("iteration,cost\n0,1.0\xe9\n", "trace.csv:2: non-ASCII byte"),
        ("iteration,cost\n", "trace.csv:2: no iteration 0"),
        ("iteration,cost\nfoo,1.0\n", "trace.csv:2: non-numeric value 'foo'"),
        ("iteration,cost\n0,2.0\n7,1.0\n", "trace.csv:3: expected iteration 1, got 7"),
    ],
)
def test_eval_rejects_foreign_trace_file(tmp_path, mini_dataset, capsys, text, fragment):
    scene = mini_dataset / "scene0"
    trace = tmp_path / "trace.csv"
    trace.write_bytes(text.encode("latin-1"))
    assert main(["eval", "--pair", str(scene / "warp.txt"), str(scene / "warp.txt"),
                 str(scene / "source.ply"), "--trace", str(trace)]) == 4
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("offset", [1e154, 1e156])
def test_register_overflow_exits_3(tmp_path, capsys, offset):
    # At +1e154 the initial cost overflows to inf; at +1e156 the first step's
    # rotation part would also overflow exp_so3. Neither may write a trace.
    source = np.random.default_rng(0).random((50, 3))
    write_corr_csv(tmp_path / "corr.csv", CorrespondenceSet(source, source + offset))
    write_ply(tmp_path / "source.ply", PointCloud(source))
    with np.errstate(all="ignore"):
        code = main(["register", "--corr", str(tmp_path / "corr.csv"),
                     "--source", str(tmp_path / "source.ply"), "--out", str(tmp_path / "est.txt")])
    assert code == 3
    assert "solver breakdown: non-finite cost (iteration 0)" in capsys.readouterr().err
    assert not (tmp_path / "cost-trace.csv").exists()


def test_prune_overflowing_consistency_exits_3(tmp_path, capsys):
    # at 1e155 the squared source and target distances overflow to inf,
    # and inf - inf would hand the network NaN consistency blocks
    scale = 1e155
    model_path = tmp_path / "model.bin"
    save_params(model_path, ScNetModel(scnet_config(PipelineConfig(**SMALL_CONFIG))))
    config = _write_json(tmp_path / "cfg.json", dict(
        SMALL_CONFIG, prune_coverage=0.08 * scale, consistency_sigma=0.08 * scale))
    source = scale * np.random.default_rng(0).random((40, 3))
    write_corr_csv(tmp_path / "corr.csv", CorrespondenceSet(source, source))
    with np.errstate(all="ignore"):
        code = main(["--config", config, "prune", "--corr", str(tmp_path / "corr.csv"),
                     "--model", str(model_path), "--out", str(tmp_path / "p.csv")])
    assert code == 3
    assert "local consistency: node 0's pairwise distances overflow" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_prune_float32_overflow_exits_3(tmp_path, capsys):
    # a loaded model scores in float32, whose range ends near 3.4e38: the
    # encoded coordinates overflow to inf and the logits come out NaN
    scale = 1e39
    model_path = tmp_path / "model.bin"
    save_params(model_path, ScNetModel(scnet_config(PipelineConfig(**SMALL_CONFIG))))
    config = _write_json(tmp_path / "cfg.json", dict(
        SMALL_CONFIG, prune_coverage=0.08 * scale, consistency_sigma=0.08 * scale))
    source = scale * np.random.default_rng(0).random((40, 3))
    write_corr_csv(tmp_path / "corr.csv", CorrespondenceSet(source, source))
    with np.errstate(all="ignore"):
        code = main(["--config", config, "prune", "--corr", str(tmp_path / "corr.csv"),
                     "--model", str(model_path), "--out", str(tmp_path / "p.csv")])
    assert code == 3
    assert "scoring: non-finite logit" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def _prune_with_blas_threads(tmp_path, threads, args):
    """Run `defreg prune` in a fresh process with BLAS held to `threads`;
    return the kept rows' coordinates (header first) and the scores."""
    out = tmp_path / f"threads{threads}"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(Path(defreg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")))))
    env.update({name: str(threads) for name in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    subprocess.run([sys.executable, "-m", "defreg.cli", *args, "--out", str(out / "kept.csv")],
                   env=env, check=True, capture_output=True)
    rows = [line.split(",")[:6] for line in (out / "kept.csv").read_text().splitlines()]
    return rows, np.loadtxt(out / "scores.csv", delimiter=",", skiprows=1)[:, 1]


def test_prune_kept_rows_do_not_depend_on_blas_thread_count(tmp_path):
    # the determinism contract holds per BLAS thread count: the scores of
    # the untrained default 256-d model move in their last float32 bits
    # between 1 and 2 threads, but the kept rows stay the same
    spec = SceneSpec(point_count=2000, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=(0.2, 0.05), inlier_ratio=0.5, inlier_noise_std=0.005, seed=0)
    write_corr_csv(tmp_path / "corr.csv", generate_scene(spec)[3])
    save_params(tmp_path / "model.bin", ScNetModel(scnet_config(PipelineConfig())))
    # 0.459 sits in a 1.9e-4 gap between two scores near the 65th percentile
    config = _write_json(tmp_path / "config.json", {"score_threshold": 0.459})
    args = ["--config", config, "prune", "--corr", str(tmp_path / "corr.csv"),
            "--model", str(tmp_path / "model.bin")]
    rows1, scores1 = _prune_with_blas_threads(tmp_path, 1, args)
    rows2, scores2 = _prune_with_blas_threads(tmp_path, 2, args)
    assert 1 < len(rows1) < 2001  # the header, and some but not all rows
    assert rows1 == rows2
    np.testing.assert_allclose(scores2, scores1, rtol=0, atol=1e-6)


def test_prune_rejects_mismatched_model(tmp_path, mini_dataset, config_path, capsys):
    other = ScNetModel(ScNetConfig(feature_dim=8, num_blocks=1, units_per_block=1,
                                   num_groups=1))
    model_path = tmp_path / "other.bin"
    save_params(model_path, other)
    scene = mini_dataset / "scene0"
    assert main(["--config", config_path, "prune", "--corr", str(scene / "corr.csv"),
                 "--model", str(model_path), "--out", str(tmp_path / "p.csv")]) == 2
    assert "descriptor" in capsys.readouterr().err


# -------------------------------------------------------------- utilities

def test_bad_config_file(tmp_path, spec_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"learning_rte": 0.1})
    assert main(["--config", cfg, "synth", spec_path, "--out", str(tmp_path / "s")]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document,key,value",
    [
        ("config", "lambda_corr", "25"),
        ("config", "learning_rate", float("nan")),
        ("config", "epochs", True),
        ("config", "max_iterations", 2.5),
        ("config", "lambda_corr", 10 ** 400),
        ("config", "model_seed", -3),
        ("spec", "point_count", "240"),
        ("spec", "inlier_noise_std", float("nan")),
        ("spec", "inlier_ratio", True),
        ("spec", "point_count", 60.5),
        ("spec", "seed", -4),
    ],
)
def test_bad_document_value_exits_2_naming_the_key(tmp_path, capsys, document, key, value):
    config, spec = {}, dict(SCENE_SPEC)
    (config if document == "config" else spec)[key] = value
    assert main(["--config", _write_json(tmp_path / "cfg.json", config), "synth",
                 _write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")


@pytest.mark.parametrize("document,kind,key,text", [
    ("cfg.json", "config", "epochs", '{"epochs": 1, "epochs": 5}'),
    ("spec.json", "scene", "seed", '{"point_count": 60, "seed": 1, "seed": 2}'),
])
def test_duplicate_document_key_exits_2(tmp_path, capsys, document, kind, key, text):
    config = _write_json(tmp_path / "cfg.json", {})
    spec = _write_json(tmp_path / "spec.json", SCENE_SPEC)
    (tmp_path / document).write_text(text + "\n")
    assert main(["--config", config, "synth", spec, "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / document}: duplicate {kind} key: {key}\n"


@pytest.mark.parametrize("command", [["synth", "spec.json"], ["train", "--data", "data"]])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command):
    assert main(["--seed", "-1", *command, "--out", str(tmp_path / "out")]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max relative error" in out


def test_inspect_graph(tmp_path, spec_path, capsys):
    scene = tmp_path / "scene"
    assert main(["synth", spec_path, "--out", str(scene)]) == 0
    capsys.readouterr()
    assert main(["inspect-graph", str(scene / "source.ply")]) == 0
    dump = capsys.readouterr().out
    assert "nodes" in dump
    assert main(["inspect-graph", str(scene / "corr.csv"), "--coverage", "0.1"]) == 0


def test_inspect_graph_reads_xyz_as_ply(tmp_path, capsys):
    points = np.random.default_rng(3).random((60, 3))
    write_ply(tmp_path / "c.ply", PointCloud(points))
    (tmp_path / "c.xyz").write_text("# the same points\n" + "".join(
        f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist()))
    dumps = []
    for name in ("c.xyz", "c.ply"):
        assert main(["inspect-graph", str(tmp_path / name), "--coverage", "0.3"]) == 0
        dumps.append(capsys.readouterr().out)
    assert dumps[0] == dumps[1] and " points=60 " in dumps[0]


def test_inspect_graph_nan_coverage_exits_2(tmp_path):
    # in a fresh process under a timeout: NaN coverage once sampled forever
    write_ply(tmp_path / "c.ply", PointCloud(np.random.default_rng(0).random((240, 3))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(Path(defreg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "defreg.cli", "inspect-graph",
                           str(tmp_path / "c.ply"), "--coverage", "nan"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "coverage must be a finite positive number, got nan" in done.stderr


@pytest.mark.parametrize("via", ["flag", "config"])
def test_inspect_graph_huge_coverage_is_one_node(tmp_path, capsys, via):
    # coverage ** 2 overflows a Python float above about 1.3e154
    write_ply(tmp_path / "c.ply", PointCloud(np.random.default_rng(0).random((20, 3))))
    args = ["inspect-graph", str(tmp_path / "c.ply")]
    if via == "flag":
        args += ["--coverage", "1e160"]
    else:
        args = ["--config", _write_json(tmp_path / "cfg.json", {"prune_coverage": 1e160})] + args
    assert main(args) == 0
    assert "nodes=1 coverage=1e+160 " in capsys.readouterr().out


def test_inspect_graph_underflowing_coverage_exits_2_naming_the_bandwidth(tmp_path, capsys):
    # 2 * coverage**2 is 0.0, so the skinning weights would be 0 / 0
    write_ply(tmp_path / "c.ply", PointCloud(np.random.default_rng(0).random((20, 3))))
    assert main(["inspect-graph", str(tmp_path / "c.ply"), "--coverage", "1e-200"]) == 2
    err = capsys.readouterr().err
    assert "node assignment: skinning bandwidth 1e-200 must be positive" in err
