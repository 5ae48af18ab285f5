"""Flat pipeline configuration: one JSON document, every tunable key.

Each key's default, type and bound is declared once, on the dataclass of
the stage that consumes it: the graph and pruning keys on `_GraphConfig`
below, the solver keys on `nicp.SolverConfig`, the network keys on
`scnet.ScNetConfig` and the training keys on `training.TrainConfig`.
`PipelineConfig` is derived from their fields, which are exactly the
document's keys; the two `seed` fields become `model_seed` and
`train_seed`. Building a document builds every slice, so a value that
any stage would reject is rejected at load. Unknown keys are rejected
too, so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace

from defreg.errors import ValidationError, check_fields, positive, read_document, write_document
from defreg.nicp import SolverConfig
from defreg.scnet.model import ScNetConfig
from defreg.training import TrainConfig

__all__ = [
    "PipelineConfig",
    "load_config",
    "save_config",
    "with_seed",
    "scnet_config",
    "solver_config",
    "train_config",
]


@dataclass(frozen=True)
class _GraphConfig:
    # pruning graph (over correspondence source points) and consistency
    prune_coverage: float = positive(0.08)
    prune_assign_k: int = 6
    consistency_sigma: float = positive(0.08)
    score_threshold: float = positive(0.4)
    # solver graph (over the full source cloud)
    solver_coverage: float = positive(0.08)
    solver_assign_k: int = 6

    def __post_init__(self):
        check_fields(self)
        if self.score_threshold > 1.0:
            raise ValidationError("score_threshold must be in (0, 1]")


# every slice of the document, with the keys its renamed fields go by
_SLICES = {
    _GraphConfig: {},
    SolverConfig: {},
    ScNetConfig: {"seed": "model_seed"},
    TrainConfig: {"seed": "train_seed"},
}


def _slice(config, cls):
    """The cls config that the document's keys describe."""
    renames = _SLICES[cls]
    return cls(**{f.name: getattr(config, renames.get(f.name, f.name)) for f in fields(cls)})


def _check_document(config) -> None:
    check_fields(config)  # first, so a bad seed is named model_seed or train_seed
    for cls in _SLICES:
        _slice(config, cls)


PipelineConfig = make_dataclass(
    "PipelineConfig",
    [(renames.get(f.name, f.name), f.type, field(default=f.default, metadata=f.metadata))
     for cls, renames in _SLICES.items() for f in fields(cls)],
    namespace={
        "__module__": __name__,
        "__doc__": "The flat config document; one field per key of the module configs.",
        "__post_init__": _check_document,
    },
    frozen=True,
)


def load_config(path) -> PipelineConfig:
    return read_document(PipelineConfig, path, "config")


def save_config(path, config: PipelineConfig) -> None:
    write_document(path, asdict(config))


def with_seed(config: PipelineConfig, seed: int) -> PipelineConfig:
    """Override every seed in the document with one value."""
    return replace(config, model_seed=seed, train_seed=seed)


def scnet_config(config: PipelineConfig) -> ScNetConfig:
    return _slice(config, ScNetConfig)


def solver_config(config: PipelineConfig) -> SolverConfig:
    return _slice(config, SolverConfig)


def train_config(config: PipelineConfig) -> TrainConfig:
    return _slice(config, TrainConfig)
