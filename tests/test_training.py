"""Losses, gradients, the Adam loop, and the training log."""

import numpy as np
import pytest

from defreg.config import PipelineConfig, scnet_config, train_config
from defreg.consistency import CorrespondenceSet, local_consistency
from defreg.defgraph import build_graph
from defreg.errors import NumericalError, ValidationError
from defreg.geometry import PointCloud
from defreg.nicp import WarpField
from defreg.scnet.layers import Linear, bind_params, param_slots, sigmoid
from defreg.scnet.model import ScNetConfig, ScNetModel, classify, run_forward
from defreg.scnet.params_io import load_params, save_params
from defreg.synth import SceneSpec, generate_scene
from defreg.training import (
    AdamState,
    TrainConfig,
    TrainScene,
    backward,
    consistency_loss,
    focal_loss,
    gradient_check,
    label_correspondences,
    make_check_scene,
    prepare_scene,
    scene_loss,
    total_loss,
    train,
    write_loss_log,
    _consistency_terms,
)


def _identity_field(points):
    graph = build_graph(np.asarray(points), 10.0, 6)
    return WarpField.identity(graph)


# ---------------------------------------------------------------- labeling

def test_labels_zero_residual_is_inlier():
    src = np.array([[0.0, 0, 0], [0.3, 0, 0]])
    corr = CorrespondenceSet(src, src)
    field = _identity_field(src)
    np.testing.assert_array_equal(label_correspondences(corr, field, 0.04), [1, 1])


def test_labels_boundary_is_strictly_below():
    src = np.array([[0.0, 0, 0], [0.3, 0, 0]])
    tgt = src + np.array([[0.04, 0, 0], [0.03999, 0, 0]])
    corr = CorrespondenceSet(src, tgt)
    field = _identity_field(src)
    np.testing.assert_array_equal(label_correspondences(corr, field, 0.04), [0, 1])


def test_labels_reject_bad_tau():
    src = np.zeros((2, 3)) + np.arange(2)[:, None]
    corr = CorrespondenceSet(src, src)
    for tau_d in (0.0, np.nan):  # NaN once labelled every correspondence 0
        with pytest.raises(ValidationError, match="tau_d must be positive"):
            label_correspondences(corr, _identity_field(src), tau_d)


# -------------------------------------------------------------------- focal

def test_focal_confident_positive_goes_to_zero():
    assert focal_loss(1.0 - 1e-7, 1, 2.0) < 1e-13


def test_focal_gamma_zero_is_cross_entropy_scalar():
    assert abs(focal_loss(0.5, 1, 0.0) - (-np.log(0.5))) < 1e-15


def test_focal_worked_value():
    assert abs(focal_loss(0.9, 1, 2.0) - 0.01 * (-np.log(0.9))) < 1e-12
    assert abs(focal_loss(0.9, 1, 2.0) - 1.0536e-3) < 1e-7


def test_focal_gamma_zero_matches_bce_on_grid():
    scores = np.linspace(0.02, 0.98, 25)
    for label in (0, 1):
        bce = -label * np.log(scores) - (1 - label) * np.log(1.0 - scores)
        np.testing.assert_allclose(focal_loss(scores, label, 0.0), bce, atol=1e-12)


def test_focal_clamps_saturated_scores():
    assert np.isfinite(focal_loss(0.0, 1, 2.0))
    assert np.isfinite(focal_loss(1.0, 0, 2.0))


# -------------------------------------------------------------- consistency

def _one_node_scene(features_count):
    rng = np.random.default_rng(0)
    src = 0.01 * rng.uniform(size=(features_count, 3))
    corr = CorrespondenceSet(src, src)
    return build_graph(src, 1.0, 6)


def test_consistency_identical_inliers_zero():
    graph = _one_node_scene(4)
    features = np.tile([1.0, 0.0, 0.0], (4, 1))
    assert consistency_loss(features, graph, np.ones(4), 1.0) == 0.0


def test_consistency_orthogonal_pair_worked_value():
    # two orthogonal unit features in one node, both inliers, sigma_f = 1:
    # delta = 0 off-diagonal, target 1 -> two cells contribute 1 each,
    # scaled by 1/(m^2 V^2) = 1/4
    graph = _one_node_scene(2)
    features = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    loss = consistency_loss(features, graph, np.ones(2), 1.0)
    assert abs(loss - 0.5) < 1e-15


def test_consistency_singleton_nodes():
    # two far-apart points, one node each; pairs are only (x, x)
    src = np.array([[0.0, 0, 0], [5.0, 0, 0]])
    corr = CorrespondenceSet(src, src)
    graph = build_graph(src, 0.001, 1)
    assert graph.num_nodes == 2
    feats = np.array([[1.0, 0, 0], [0.0, 1, 0]])
    assert consistency_loss(feats, graph, np.array([1, 1]), 1.0) == 0.0
    assert consistency_loss(feats, graph, np.array([1, 0]), 1.0) == pytest.approx(0.25)


def test_consistency_zero_norm_feature_raises():
    graph = _one_node_scene(2)
    feats = np.array([[1.0, 0, 0], [0.0, 0, 0]])
    with pytest.raises(NumericalError, match="zero-norm row 1"):
        consistency_loss(feats, graph, np.ones(2), 1.0)


def _consistency_difference_oracle(features, graph, labels, sigma_f):
    """The loss, dL/dfeatures and dL/dsigma_f with every node's squared
    distances taken from its (M, M, d) row differences."""
    norms = np.sqrt((features ** 2).sum(axis=1, keepdims=True))
    hhat = features / norms
    lab = np.asarray(labels, dtype=np.float64)
    nonempty = [m for m in graph.node_to_members if m.size]
    v2 = len(nonempty) ** 2
    total, dsigma, dhhat = 0.0, 0.0, np.zeros_like(hhat)
    for members in nonempty:
        block = hhat[members]
        d2 = ((block[:, None, :] - block[None, :, :]) ** 2).sum(axis=2)
        raw = 1.0 - d2 / sigma_f ** 2
        gap = np.maximum(raw, 0.0) - np.outer(lab[members], lab[members])
        scale = 1.0 / (members.size ** 2 * v2)
        total += np.abs(gap).sum() * scale
        w = np.sign(gap) * (raw > 0.0) * scale
        coef = -w / sigma_f ** 2
        dhhat[members] += 4.0 * (coef.sum(axis=1)[:, None] * block - coef @ block)
        dsigma += (w * d2).sum() * 2.0 / sigma_f ** 3
    dfeatures = (dhhat - hhat * (hhat * dhhat).sum(axis=1, keepdims=True)) / norms
    return total, dfeatures, dsigma


@pytest.mark.parametrize("dim, duplicates, sigma_f", [
    (32, False, 1.0), (32, True, 1.0), (32, True, 0.8), (256, False, 1.0), (256, True, 1.2),
])
def test_gram_consistency_matches_difference_oracle(dim, duplicates, sigma_f):
    rng = np.random.default_rng(dim + 7 * duplicates)
    src = rng.uniform(0.0, 1.0, (80, 3))
    if duplicates:
        src[40:60] = src[:20]  # so each copy below shares its original's nodes
    graph = build_graph(src, 0.3, 4)
    labels = (rng.uniform(size=80) < 0.6).astype(np.int8)
    # rows near one direction, so that the hinge is active for some pairs only
    feats = rng.normal(size=dim) + 0.6 * rng.normal(size=(80, dim))
    if duplicates:
        # exact copies and rescaled copies of rows, inliers and outliers:
        # the difference form gives their pairs d2 = 0 exactly
        feats[40:60] = feats[:20] * np.where(np.arange(20) % 2, 1.0, 3.5)[:, None]
        labels[40:60] = labels[:20]
    loss, dfeatures, dsigma = _consistency_terms(feats, graph, labels, sigma_f, want_grad=True)
    ref_loss, ref_dfeatures, ref_dsigma = _consistency_difference_oracle(
        feats, graph, labels, sigma_f)
    assert ref_loss > 0.0 and ref_dsigma != 0.0
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert abs(dsigma - ref_dsigma) <= 1e-12 * abs(ref_dsigma)
    np.testing.assert_allclose(dfeatures, ref_dfeatures, rtol=0,
                               atol=1e-12 * np.abs(ref_dfeatures).max())


# -------------------------------------------------------------- total loss

def test_total_loss_lambda_zero_is_classification_only():
    graph = _one_node_scene(3)
    rng = np.random.default_rng(1)
    scores = rng.uniform(0.1, 0.9, size=3)
    labels = np.array([1, 0, 1])
    feats = rng.normal(size=(3, 4))
    got = total_loss(scores, labels, feats, graph, 1.0, 2.0, 0.0)
    assert got == pytest.approx(float(np.mean(focal_loss(scores, labels, 2.0))), abs=1e-15)


def test_total_loss_is_sum_of_parts():
    graph = _one_node_scene(5)
    rng = np.random.default_rng(2)
    scores = rng.uniform(0.1, 0.9, size=5)
    labels = rng.integers(0, 2, size=5)
    feats = rng.normal(size=(5, 6))
    lam = 0.7
    expect = float(np.mean(focal_loss(scores, labels, 2.0))) + lam * consistency_loss(
        feats, graph, labels, 0.8
    )
    assert total_loss(scores, labels, feats, graph, 0.8, 2.0, lam) == pytest.approx(expect, abs=1e-15)


def test_total_loss_zero_when_both_terms_zero():
    graph = _one_node_scene(2)
    feats = np.tile([0.0, 1.0, 0.0], (2, 1))
    scores = np.array([1.0, 1.0])  # clamped inside focal_loss
    labels = np.ones(2, dtype=np.int8)
    assert total_loss(scores, labels, feats, graph, 1.0, 2.0, 1.0) < 1e-12


# ---------------------------------------------------------------- gradients

def test_bce_gradient_closed_form():
    # single linear layer + sigmoid + mean BCE: dL/dW = x^T (s - y) / n
    rng = np.random.default_rng(3)
    lin = Linear(4, 1)
    size = sum(int(np.prod(slot[3])) for slot in param_slots(lin))
    bind_params([lin], np.zeros(size), np.zeros(size), rng)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, size=6).astype(np.float64)
    logits, cache = lin.forward(x)
    s = sigmoid(logits[:, 0])
    dlogit = ((s - y) / 6.0)[:, None]
    lin.gw[...] = 0.0
    lin.gb[...] = 0.0
    lin.backward(cache, dlogit)
    np.testing.assert_allclose(lin.gw, x.T @ ((s - y) / 6.0)[:, None], atol=1e-15)
    np.testing.assert_allclose(lin.gb, np.sum((s - y) / 6.0, keepdims=True), atol=1e-15)


def test_gradient_check_micro_model():
    assert gradient_check(seed=0) < 1e-4


def test_gradient_check_alternate_seed():
    assert gradient_check(seed=3) < 1e-4


# --------------------------------------------------------------------- adam

def test_adam_five_step_hand_oracle():
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    p = np.array([1.0, -2.0])
    adam = AdamState(p)
    grads_seq = [np.array([0.3, -0.1]), np.array([-0.2, 0.4]), np.array([0.05, 0.0]),
                 np.array([0.1, 0.1]), np.array([-0.3, 0.2])]
    lr, wd = 0.01, 0.1

    expect = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        expect = expect - lr * (mhat / (np.sqrt(vhat) + eps) + wd * expect)

    for g in grads_seq:
        adam.update(p, g, lr, wd)
    np.testing.assert_allclose(p, expect, atol=1e-15)
    assert adam.step == 5


def test_adam_decay_is_decoupled():
    # with zero gradient the update is a pure shrink by lr * wd * p
    p = np.array([2.0])
    adam = AdamState(p)
    adam.update(p, np.zeros(1), 0.1, 0.5)
    np.testing.assert_allclose(p, [2.0 - 0.1 * 0.5 * 2.0], atol=1e-15)


# ------------------------------------------------------------------ train()

def _micro_model(seed=0):
    return ScNetModel(ScNetConfig(feature_dim=16, num_blocks=1, units_per_block=1,
                                  num_groups=2, seed=seed))


def _tiny_dataset(n=4):
    return [make_check_scene(seed) for seed in range(n)]


def test_train_zero_learning_rate_is_inert():
    model = _micro_model()
    before = model.values.copy()
    log, state = train(model, _tiny_dataset(3), TrainConfig(epochs=3, learning_rate=0.0))
    np.testing.assert_array_equal(model.values, before)
    losses = [row[1] for row in log]
    assert max(losses) - min(losses) < 1e-15
    assert state.step == 9


def test_train_reduces_loss():
    model = _micro_model(seed=1)
    dataset = _tiny_dataset(4)
    first = float(np.mean([scene_loss(model, s) for s in dataset]))
    log, _ = train(model, dataset, TrainConfig(epochs=8, learning_rate=3e-3, seed=0))
    final = float(np.mean([scene_loss(model, s) for s in dataset]))
    assert final < first
    assert log[-1][1] < log[0][1]


def test_train_is_deterministic():
    cfg = TrainConfig(epochs=2, learning_rate=1e-3, seed=5)
    m1, m2 = _micro_model(), _micro_model()
    log1, _ = train(m1, _tiny_dataset(3), cfg)
    log2, _ = train(m2, _tiny_dataset(3), cfg)
    assert log1 == log2
    np.testing.assert_array_equal(m1.values, m2.values)


def test_train_augment_changes_trajectory_deterministically():
    cfg_a = TrainConfig(epochs=2, learning_rate=1e-3, seed=5, augment=True)
    m1, m2, m3 = _micro_model(), _micro_model(), _micro_model()
    log1, _ = train(m1, _tiny_dataset(3), cfg_a)
    log2, _ = train(m2, _tiny_dataset(3), cfg_a)
    assert log1 == log2
    np.testing.assert_array_equal(m1.values, m2.values)
    log3, _ = train(m3, _tiny_dataset(3), TrainConfig(epochs=2, learning_rate=1e-3, seed=5))
    assert log1 != log3


def test_train_empty_dataset_rejected():
    with pytest.raises(ValidationError, match="empty"):
        train(_micro_model(), [], TrainConfig(epochs=1))


def test_train_divergence_raises_numerical_error():
    model = _micro_model()
    model.values[...] = 1e300
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="diverged|non-finite"):
        train(model, _tiny_dataset(2), TrainConfig(epochs=1, learning_rate=1e-3))


def test_train_names_the_epoch_a_parameter_leaves_float32():
    # one step at learning rate 1e40 ends on a finite loss with weights
    # near 1e40, which float32 cannot hold
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=r"^training diverged at epoch 0: parameter \S+ has a value "
                                  r"that is not finite in float32$"):
        train(_micro_model(), _tiny_dataset(1), TrainConfig(epochs=3, learning_rate=1e40))


def test_one_train_step_moves_the_layer_arrays_themselves():
    model = _micro_model()
    weight = model.init[0].w
    before = weight.copy()
    train(model, _tiny_dataset(1), TrainConfig(epochs=1, learning_rate=1e-3))
    assert model.init[0].w is weight and np.shares_memory(weight, model.values)
    assert not np.array_equal(weight, before)


def test_training_refuses_loaded_float32_model(tmp_path):
    path = tmp_path / "m.params"
    save_params(path, _micro_model(seed=2))
    model = _micro_model()
    load_params(path, model)
    before = model.values.copy()
    with pytest.raises(ValidationError, match="float64 parameters; this model holds float32"):
        backward(model, make_check_scene(0))
    with pytest.raises(ValidationError, match="float64 parameters"):
        train(model, _tiny_dataset(2), TrainConfig(epochs=1, learning_rate=1e-3))
    np.testing.assert_array_equal(model.values, before)


def test_loaded_model_holds_read_only_zero_gradients(tmp_path):
    """A loaded model's gradients own no memory: zero-strided read-only
    zeros of each parameter's dtype. zero_grad says why it cannot run, and
    training still refuses the model by its dtype."""
    path = tmp_path / "m.params"
    save_params(path, _micro_model(seed=2))
    model = _micro_model()
    load_params(path, model)
    for name, value, grad in model.params():
        assert grad.shape == value.shape and grad.dtype == value.dtype == np.float32, name
        assert not grad.flags.writeable and all(s == 0 for s in grad.strides), name
    assert model.grads.size == model.values.size and not model.grads.any()
    with pytest.raises(ValidationError, match="loaded from a parameter file holds no gradient buffers"):
        model.zero_grad()
    with pytest.raises(ValidationError, match="float64 parameters; this model holds float32"):
        backward(model, make_check_scene(0))
    with pytest.raises(ValidationError, match="float64 parameters"):
        train(model, _tiny_dataset(2), TrainConfig(epochs=1, learning_rate=1e-3))


def test_saved_model_prunes_like_the_model_train_produced(tmp_path):
    """The README's small model, trained on fewer scenes and epochs: the
    saved and loaded (float32) model keeps the same correspondences as the
    in-memory float64 one, except any scored within 1e-5 of the threshold."""
    tol = 1e-5
    config = PipelineConfig(feature_dim=32, num_blocks=1, units_per_block=2, num_groups=2,
                            epochs=5, learning_rate=3e-3)

    def corr_for(seed):
        spec = SceneSpec(point_count=240, surface="two-lobe", warp_kind="smooth-graph",
                         warp_magnitude=(0.2, 0.05), inlier_ratio=0.5,
                         inlier_noise_std=0.005, seed=seed)
        return generate_scene(spec)[3]

    dataset = [prepare_scene(corr_for(100 + i), config.prune_coverage, config.prune_assign_k,
                             config.consistency_sigma) for i in range(8)]
    model = ScNetModel(scnet_config(config))
    train(model, dataset, train_config(config))
    path = tmp_path / "model.bin"
    save_params(path, model)
    loaded = ScNetModel(scnet_config(config))
    load_params(path, loaded)
    tau = config.score_threshold
    for seed in range(5000, 5005):
        corr = corr_for(seed)
        graph = build_graph(corr.source, config.prune_coverage, config.prune_assign_k)
        scores = []
        for m in (model, loaded):  # each takes the blocks in its own dtype
            theta = local_consistency(corr, graph, config.consistency_sigma, dtype=m.dtype)
            scores.append(run_forward(m, corr, graph, theta).scores)
        wide, narrow = scores
        assert np.abs(narrow - wide).max() <= tol
        differ = np.setxor1d(classify(wide, tau), classify(narrow, tau))
        assert (np.abs(wide[differ] - tau) <= tol).all()


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(lr_decay_per_epoch=1.0)


def test_prepare_scene_requires_labels():
    src = np.zeros((3, 3)) + np.arange(3)[:, None] * 0.01
    corr = CorrespondenceSet(src, src)
    with pytest.raises(ValidationError, match="labels"):
        prepare_scene(corr, 0.25, 6, 0.08)


def test_loss_log_format(tmp_path):
    rows = [(0, 0.5, 0.3, 0.2, 1e-3), (1, 0.25, 0.125, 0.125, 9.5e-4)]
    path = tmp_path / "loss.csv"
    write_loss_log(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,mean_cls,mean_con,lr"
    assert lines[1] == "0,0.5,0.3,0.2,0.001"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        float(fields[1]); float(fields[2]); float(fields[3]); float(fields[4])
