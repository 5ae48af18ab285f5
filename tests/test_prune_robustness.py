"""The pruning chain on degenerate geometry returns scores or fails cleanly.

Each example builds a correspondence set with one degeneracy: duplicate or
collinear source points, a single correspondence, or an all-outlier set
(targets unrelated to their sources), at a coordinate scale between 1e-6
and 1e200. It then runs the chain `prune` runs: the pruning graph, the
consistency blocks and the micro model's forward pass, with the coverage
and sigma_d in proportion to the scale. The forward pass runs twice: on the
constructed (float64) model and on the same model loaded from a parameter
file, which scores in float32 and overflows far sooner. The scores must be
finite and in [0, 1], or the step must raise ValidationError (exit 2) or
NumericalError (exit 3); any other exception would reach the user as a
traceback with exit 1, and a NaN score as a complaint about the scores file.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from defreg.consistency import CorrespondenceSet, local_consistency
from defreg.defgraph import build_graph
from defreg.errors import NumericalError, ValidationError
from defreg.geometry import exp_so3
from defreg.scnet.model import ScNetConfig, ScNetModel, run_forward
from defreg.scnet.params_io import load_params, save_params

CASES = ("duplicate", "collinear", "single-point", "all-outlier")

MODEL = ScNetModel(ScNetConfig(feature_dim=8, init_widths=(8, 8, 8), head_widths=(8, 4, 1),
                               num_blocks=1, units_per_block=1, num_groups=2))


def _loaded(model):
    """The same architecture with model's parameters read back from a file (float32)."""
    loaded = ScNetModel(model.config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "micro.params"
        save_params(path, model)
        load_params(path, loaded)
    return loaded


MODELS = (MODEL, _loaded(MODEL))


def _correspondences(case, count, rng):
    """(source, target) in the unit cube's scale."""
    source = rng.random((count, 3))
    if case == "duplicate":
        source[count // 2:] = source[0]
    elif case == "collinear":
        source = np.outer(rng.random(count), rng.normal(size=3))
    elif case == "single-point":
        source = source[:1]
    if case == "all-outlier":
        return source, rng.random(source.shape)
    return source, source @ exp_so3(rng.normal(scale=0.3, size=3)).T \
        + rng.normal(scale=0.01, size=source.shape)


@settings(max_examples=100)
@given(case=st.sampled_from(CASES), count=st.integers(2, 12),
       exponent=st.integers(-6, 200), seed=st.integers(0, 2 ** 16))
def test_prune_chain_on_degenerate_geometry(case, count, exponent, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    source, target = _correspondences(case, count, rng)
    with np.errstate(all="ignore"):
        try:
            corr = CorrespondenceSet(scale * source, scale * target)
            graph = build_graph(corr.source, 0.3 * scale, 6)
            theta = local_consistency(corr, graph, 0.08 * scale)
        except (ValidationError, NumericalError):
            return
        for model in MODELS:
            try:
                scores = run_forward(model, corr, graph, theta).scores
            except (ValidationError, NumericalError):
                continue
            assert scores.shape == (len(corr),)
            assert np.isfinite(scores).all() and scores.min() >= 0.0 and scores.max() <= 1.0
