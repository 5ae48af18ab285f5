"""The flat pipeline configuration document and its per-module slices."""

import dataclasses
import json

import pytest

from defreg.config import (
    _SLICES,
    PipelineConfig,
    _GraphConfig,
    _slice,
    load_config,
    save_config,
    scnet_config,
    solver_config,
    train_config,
    with_seed,
)
from defreg.errors import FileFormatError, ValidationError
from defreg.nicp import SolverConfig
from defreg.scnet.model import ScNetConfig
from defreg.training import TrainConfig


def test_defaults_are_valid_and_stable():
    cfg = PipelineConfig()
    assert cfg.consistency_sigma == 0.08
    assert cfg.score_threshold == 0.4
    assert cfg.lambda_corr == 25.0
    assert cfg.lambda_reg == 1.0
    assert cfg.feature_dim == 256
    assert cfg.epochs == 40
    assert cfg.focal_gamma == 2.0


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(consistency_sigma=0.0), "consistency_sigma must be positive"),
        (dict(lambda_corr=-1.0), "lambda_corr must be positive"),
        (dict(max_iterations=0), "max_iterations must be an integer >= 1"),
        (dict(epochs=2.5), "epochs must be an integer >= 1"),
        (dict(weight_decay=-1e-6), "weight_decay must be nonnegative"),
        (dict(score_threshold=1.5), "score_threshold"),
        (dict(lr_decay_per_epoch=1.0), "lr_decay_per_epoch must be in"),
        (dict(feature_dim=2), "feature_dim"),
    ],
)
def test_validation_names_the_offending_key(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        PipelineConfig(**kwargs)


def test_save_load_round_trip(tmp_path):
    cfg = PipelineConfig(feature_dim=32, num_groups=4, epochs=7, learning_rate=3e-3,
                         lambda_reg=0.5, train_seed=11, augment=True)
    path = tmp_path / "config.json"
    save_config(path, cfg)
    assert load_config(path) == cfg
    # and the document is plain sorted JSON
    data = json.loads(path.read_text())
    assert list(data) == sorted(data)


def test_save_is_deterministic(tmp_path):
    cfg = PipelineConfig()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_config(p1, cfg)
    save_config(p2, cfg)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{\"epochs\": 3,", "bad config file"),
        ("{\n\"epochs\": 3\xe9}", "broken.json:2: non-ASCII byte"),
        ("{\"epochs\": " + "1" * 5000 + "}", "bad config file"),
    ],
)
def test_load_rejects_malformed_json(tmp_path, text, fragment):
    path = tmp_path / "broken.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(FileFormatError, match=fragment):
        load_config(path)


def test_load_rejects_non_object_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(FileFormatError, match="JSON object"):
        load_config(path)


def test_load_rejects_unknown_key(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"epochs": 3, "learning_rte": 0.1}))
    with pytest.raises(ValidationError, match="unknown config key: learning_rte"):
        load_config(path)


def test_partial_document_fills_defaults(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"epochs": 3, "feature_dim": 16, "num_groups": 2}))
    cfg = load_config(path)
    assert cfg.epochs == 3
    assert cfg.feature_dim == 16
    assert cfg.lambda_corr == PipelineConfig().lambda_corr


def test_with_seed_overrides_both_seeds():
    cfg = with_seed(PipelineConfig(model_seed=1, train_seed=2), 9)
    assert cfg.model_seed == 9
    assert cfg.train_seed == 9


def test_network_slice():
    cfg = PipelineConfig(feature_dim=32, num_blocks=2, units_per_block=1,
                         num_groups=4, model_seed=5)
    net = scnet_config(cfg)
    assert net.feature_dim == 32
    assert net.init_widths == (32, 32, 32)
    assert net.head_widths == (16, 8, 1)
    assert net.num_blocks == 2
    assert net.units_per_block == 1
    assert net.num_groups == 4
    assert net.seed == 5


def test_solver_slice():
    cfg = PipelineConfig(lambda_corr=9.0, lambda_reg=0.25, marquardt=1e-3,
                         max_iterations=77, cost_tolerance=1e-9, step_tolerance=1e-8)
    sol = solver_config(cfg)
    assert sol.lambda_corr == 9.0
    assert sol.lambda_reg == 0.25
    assert sol.marquardt == 1e-3
    assert sol.max_iterations == 77
    assert sol.cost_tolerance == 1e-9
    assert sol.step_tolerance == 1e-8


def test_training_slice():
    cfg = PipelineConfig(epochs=5, learning_rate=2e-3, lr_decay_per_epoch=0.1,
                         weight_decay=1e-4, focal_gamma=1.5,
                         loss_lambda=0.7, train_seed=3, augment=True)
    tr = train_config(cfg)
    assert tr.epochs == 5
    assert tr.learning_rate == 2e-3
    assert tr.lr_decay_per_epoch == 0.1
    assert tr.weight_decay == 1e-4
    assert tr.focal_gamma == 1.5
    assert tr.loss_lambda == 0.7
    assert tr.seed == 3
    assert tr.augment is True


def test_default_document_slices_are_the_module_defaults():
    cfg = PipelineConfig()
    assert scnet_config(cfg) == ScNetConfig()
    assert solver_config(cfg) == SolverConfig()
    assert train_config(cfg) == TrainConfig()


def test_every_document_key_lands_in_exactly_one_slice():
    base = PipelineConfig()
    slices = (_GraphConfig, SolverConfig, ScNetConfig, TrainConfig)
    keys = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert len(keys) == 26
    for key in keys:
        value = getattr(base, key)
        changed = PipelineConfig(**{key: (not value) if isinstance(value, bool) else 2 * value or 1})
        moved = [cls for cls in slices if _slice(changed, cls) != _slice(base, cls)]
        assert len(moved) == 1, key


def test_slice_fields_are_exactly_the_document_keys():
    renamed = [renames.get(f.name, f.name)
               for cls, renames in _SLICES.items() for f in dataclasses.fields(cls)]
    assert sorted(renamed) == sorted(f.name for f in dataclasses.fields(PipelineConfig))


@pytest.mark.parametrize(
    "make,fragment",
    [
        (lambda: SolverConfig(max_iterations=2.5), "max_iterations must be an integer >= 1"),
        (lambda: TrainConfig(epochs=2.5), "epochs must be an integer >= 1"),
        (lambda: TrainConfig(augment="yes"), "augment must be true or false"),
        (lambda: ScNetConfig(seed=-1), "seed must be an integer >= 0"),
        (lambda: SolverConfig(lambda_corr=float("inf")), "lambda_corr must be a finite number"),
        (lambda: PipelineConfig(train_seed=-2), "train_seed must be an integer >= 0"),
    ],
)
def test_module_configs_check_types_and_bounds(make, fragment):
    with pytest.raises(ValidationError, match=fragment):
        make()


def test_zero_learning_rate_is_one_rule_everywhere():
    assert train_config(PipelineConfig(learning_rate=0.0)) == TrainConfig(learning_rate=0.0)


def test_load_rejects_unbuildable_network(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"feature_dim": 16}))
    with pytest.raises(ValidationError, match="num_groups 8"):
        load_config(path)
