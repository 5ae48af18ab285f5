"""Network building blocks with explicit reverse-mode backward passes.

A layer declares its parameters and allocates none: slots lists (attr,
shape, init) in order, and sublayers names attributes holding layers whose
slots follow. bind_params makes each parameter and its gradient (its name
with a "g" in front) views of two flat vectors the caller owns. forward(x)
returns (y, cache); backward(cache, dy) returns dx and accumulates into the
gradient views. Caches travel with the call because one layer instance runs
on many per-node feature blocks in one pass (weight sharing across nodes).

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

__all__ = ["Linear", "GroupNorm", "LeakyRelu", "uniform", "param_slots", "bind_params",
           "softmax_rows", "softmax_backward", "sigmoid"]


def uniform(fan_in: int):
    """Slot initialiser drawing uniformly in +-sqrt(1/fan_in)."""
    bound = np.sqrt(1.0 / fan_in)
    return lambda rng, shape: rng.uniform(-bound, bound, size=shape)


def param_slots(layer, prefix: str = ""):
    """(name, owner, attr, shape, init) of layer's slots, then of each
    sublayer's, in order; a sublayer's names are prefixed, as in "ln1.gamma"."""
    for attr, shape, init in getattr(layer, "slots", ()):
        yield prefix + attr, layer, attr, shape, init
    for sub in getattr(layer, "sublayers", ()):
        yield from param_slots(getattr(layer, sub), f"{prefix}{sub}.")


def bind_params(layers, values: np.ndarray, grads: np.ndarray, rng=None) -> None:
    """Make every parameter of layers, in slot order, a view of the next
    slice of values and its gradient one of the same slice of grads. With
    rng, each slice first takes its init: a constant, or init(rng, shape)."""
    offset = 0
    for layer in layers:
        for _, owner, attr, shape, init in param_slots(layer):
            end = offset + int(np.prod(shape))
            value = values[offset:end].reshape(shape)
            if rng is not None:
                value[...] = init(rng, shape) if callable(init) else init
            setattr(owner, attr, value)
            setattr(owner, "g" + attr, grads[offset:end].reshape(shape))
            offset = end


class Linear:
    """y = x @ w + b, init uniform in +-sqrt(1/fan_in)."""

    def __init__(self, n_in: int, n_out: int):
        self.slots = [("w", (n_in, n_out), uniform(n_in)), ("b", (n_out,), uniform(n_in))]

    def forward(self, x):
        return x @ self.w + self.b, x

    def backward(self, cache, dy):
        x = cache
        self.gw += x.T @ dy
        self.gb += dy.sum(axis=0)
        return dy @ self.w.T


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


class GroupNorm:
    """Per-row group normalization over channel groups, affine per channel.
    One group normalizes each row over all its channels (layer norm); groups
    must divide channels, which ScNetConfig checks for every width it builds."""

    eps = 1e-5

    def __init__(self, channels: int, groups: int):
        self.groups = groups
        self.slots = [("gamma", (channels,), 1.0), ("beta", (channels,), 0.0)]

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
