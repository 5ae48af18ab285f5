"""The pruning and training chains on degenerate geometry return scores
and losses or fail cleanly.

Each example builds a correspondence set with one degeneracy: duplicate or
collinear source points, a single correspondence, or an all-outlier set
(targets unrelated to their sources), at a coordinate scale between 1e-6
and 1e200. It then runs the chain `prune` runs: the pruning graph, the
consistency blocks and the micro model's forward pass, with the coverage
and sigma_d in proportion to the scale. The forward pass runs twice: on the
constructed (float64) model and on the same model loaded from a parameter
file, which scores in float32 and overflows far sooner; each takes the
consistency blocks in its own dtype. The scores must be finite and in
[0, 1], or the step must raise ValidationError (exit 2) or NumericalError
(exit 3); any other exception would reach the user as a traceback with
exit 1, and a NaN score as a complaint about the scores file.

The same correspondences, labelled all inlier, all outlier or mixed, then
run the chain one `train` step runs: `prepare_scene` and `backward` on the
constructed model. The loss must be finite, or the step must raise one of
the same two errors.
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
from defreg.training import backward, prepare_scene

CASES = ("duplicate", "collinear", "single-point", "all-outlier")
LABELINGS = ("inlier", "outlier", "mixed")

MODEL = ScNetModel(ScNetConfig(feature_dim=8, num_blocks=1, units_per_block=1, num_groups=1))


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


def _labels(labeling, count, rng):
    if labeling == "mixed":
        return rng.integers(0, 2, count)
    return np.full(count, int(labeling == "inlier"))


@settings(max_examples=100)
@given(case=st.sampled_from(CASES), count=st.integers(2, 12),
       exponent=st.integers(-6, 200), seed=st.integers(0, 2 ** 16),
       labeling=st.sampled_from(LABELINGS))
def test_prune_chain_on_degenerate_geometry(case, count, exponent, seed, labeling):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    source, target = _correspondences(case, count, rng)
    labels = _labels(labeling, len(source), rng)
    with np.errstate(all="ignore"):
        try:
            corr = CorrespondenceSet(scale * source, scale * target, labels)
            graph = build_graph(corr.source, 0.3 * scale, 6)
            thetas = [local_consistency(corr, graph, 0.08 * scale, dtype=model.dtype)
                      for model in MODELS]
        except (ValidationError, NumericalError):
            return
        for model, theta in zip(MODELS, thetas):
            try:
                scores = run_forward(model, corr, graph, theta).scores
            except (ValidationError, NumericalError):
                continue
            assert scores.shape == (len(corr),)
            assert np.isfinite(scores).all() and scores.min() >= 0.0 and scores.max() <= 1.0
        try:
            scene = prepare_scene(corr, 0.3 * scale, 6, 0.08 * scale)
            loss, _, _ = backward(MODEL, scene)
        except (ValidationError, NumericalError):
            return
        assert np.isfinite(loss)
