from defreg.scnet.model import (
    ScNetConfig,
    ScNetModel,
    aggregate,
    classify,
    encode_input,
    run_forward,
    backward_through,
)
from defreg.scnet.params_io import load_params, save_params

__all__ = [
    "ScNetConfig",
    "ScNetModel",
    "aggregate",
    "classify",
    "encode_input",
    "run_forward",
    "backward_through",
    "load_params",
    "save_params",
]
