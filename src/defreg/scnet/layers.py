"""Network building blocks with explicit reverse-mode backward passes.

Layers are parameter containers. forward(x) returns (y, cache) and
backward(cache, dy) returns dx while accumulating parameter gradients
into the layer's grad arrays. Caches travel with the call rather than
living on the layer, because one layer instance is applied to many
per-node feature blocks inside a single forward pass (weight sharing
across graph nodes).

Every layer computes in the dtype of its input and parameters: float64
when the model is constructed and trained, float32 when it is loaded from
a parameter file (which stores float32) and only scored. Constants are
Python floats so that they never promote a float32 pass. LeakyRelu is
branch-free: forward and backward multiply by a per-entry factor looked up
from the sign mask, not select between two arrays. Gradient formulas follow
the usual identities; the normalization backward is

    dx = (g - mean(g) - xhat * mean(g * xhat)) / std,   g = dy * gamma

with means over the channels of each group.
"""

from __future__ import annotations

import numpy as np

from defreg.errors import ValidationError

__all__ = ["Linear", "GroupNorm", "LeakyRelu", "softmax_rows", "softmax_backward", "sigmoid"]


class Linear:
    """y = x @ w + b, init uniform in +-sqrt(1/fan_in)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = np.sqrt(1.0 / n_in)
        self.w = rng.uniform(-bound, bound, size=(n_in, n_out))
        self.b = rng.uniform(-bound, bound, size=n_out)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def forward(self, x):
        return x @ self.w + self.b, x

    def backward(self, cache, dy):
        x = cache
        self.gw += x.T @ dy
        self.gb += dy.sum(axis=0)
        return dy @ self.w.T

    def params(self):
        return [("w", self.w, self.gw), ("b", self.b, self.gb)]


class LeakyRelu:
    """x where x > 0, else slope*x; stateless apart from the slope.

    Both passes multiply by 1 or slope, taken from the mask's bytes: bitwise
    np.where(pos, x, slope * x) for every slope and special value. Not
    np.maximum(x, slope * x), which at slope 0 turns +inf into NaN (0 * inf)."""

    def __init__(self, slope: float = 0.01):
        self.slope = float(slope)

    def _scale(self, x, pos):
        return x * np.take(np.array([self.slope, 1.0], x.dtype), pos.view(np.uint8))

    def forward(self, x):
        pos = x > 0
        return self._scale(x, pos), pos

    def backward(self, cache, dy):
        return self._scale(dy, cache)

    def params(self):
        return []


class GroupNorm:
    """Per-row group normalization over channel groups, affine per channel.
    One group normalizes each row over all its channels (layer norm)."""

    def __init__(self, channels: int, groups: int, eps: float = 1e-5):
        if channels % groups != 0:
            raise ValidationError(f"groups {groups} must divide channels {channels}")
        self.groups = groups
        self.eps = eps
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)

    def forward(self, x):
        n, c = x.shape
        g = self.groups
        xg = x.reshape(n, g, c // g)
        xhat = xg - xg.mean(axis=2, keepdims=True)
        var = (xhat ** 2).mean(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std
        y = xhat.reshape(n, c) * self.gamma
        y += self.beta
        return y, (xhat, inv_std)

    def backward(self, cache, dy):
        xhat, inv_std = cache
        n, c = dy.shape
        g = self.groups
        xhat_flat = xhat.reshape(n, c)
        self.ggamma += (dy * xhat_flat).sum(axis=0)
        self.gbeta += dy.sum(axis=0)
        gg = (dy * self.gamma).reshape(n, g, c // g)
        mean_g = gg.mean(axis=2, keepdims=True)
        mean_gx = (gg * xhat).mean(axis=2, keepdims=True)
        dx = (gg - mean_g - xhat * mean_gx) * inv_std
        return dx.reshape(n, c)

    def params(self):
        return [("gamma", self.gamma, self.ggamma), ("beta", self.beta, self.gbeta)]


def softmax_rows(x: np.ndarray) -> np.ndarray:
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_backward(softmax_out: np.ndarray, dy: np.ndarray) -> np.ndarray:
    s = softmax_out
    return s * (dy - (dy * s).sum(axis=1, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
