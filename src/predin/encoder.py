"""Flatten-then-MLP encoder with analytic forward/backward and SGD updates.

Everything is deterministic and computes in the dtype of its inputs (numpy
promotes a mix); every run path feeds it float64 windows and parameters.
The backward pass is written for exactness, not speed: every gradient
produced on top of this encoder is validated against central finite
differences (finite_diff_check, which works in float64). Each layer's bias
sum and activation go into its product in place, and each derivative
product into delta @ W, with the same bits as fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _relu(z):
    return np.maximum(z, 0.0, out=z)


def _relu_deriv_mul(a, delta):
    # from the activation a = relu(z): a > 0 exactly when z > 0; subgradient 0
    # at the kink. The mask multiplies as 1.0 or 0.0
    return np.multiply(delta, a > 0.0, out=delta)


def _tanh(z):
    return np.tanh(z, out=z)


def _tanh_deriv_mul(a, delta):
    # from the activation a = tanh(z): delta * (1 - a*a)
    deriv = np.multiply(a, a)
    np.subtract(1.0, deriv, out=deriv)
    return np.multiply(delta, deriv, out=delta)


# name -> (activation applied in place to z, and the product of delta with
# the derivative, written in terms of the activation a, into delta)
ACTIVATIONS = {"relu": (_relu, _relu_deriv_mul), "tanh": (_tanh, _tanh_deriv_mul)}


@dataclass(frozen=True)
class EncoderSpec:
    """Layer widths of the encoder: input -> hidden_dims... -> output_dim.

    Hidden layers carry the activation; the output layer is linear so the
    embedding space spans all of R^d.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    activation: str

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer dims must be >= 1, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)


@dataclass
class EncoderParams:
    """Per-layer weights (fan_out, fan_in) and biases (fan_out,)."""

    spec: EncoderSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    init_seed: int

    def arrays(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...] in update order."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def init_encoder(spec: EncoderSpec, seed: int) -> EncoderParams:
    """He-style init: W ~ N(0, 2/fan_in), biases zero, deterministic per seed."""
    rng = np.random.default_rng(seed)
    dims = spec.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(spec=spec, weights=weights, biases=biases, init_seed=seed)


@dataclass
class ForwardCache:
    """Activations recorded by encoder_forward, consumed by encoder_backward."""

    params: EncoderParams
    layer_inputs: list[np.ndarray]  # input to each layer; activations after the first


def encoder_forward(params: EncoderParams, inputs: np.ndarray):
    """Map a batch (M, input_dim) to embeddings (M, output_dim).

    Returns (embeddings, cache); the cache holds everything backward needs.
    """
    if inputs.ndim != 2 or inputs.shape[1] != params.spec.input_dim:
        raise ValueError(
            f"inputs must be (M, {params.spec.input_dim}), got {inputs.shape}"
        )
    act, _ = ACTIVATIONS[params.spec.activation]
    n_layers = len(params.weights)
    layer_inputs = []
    a = inputs
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(a)
        a = a @ w.T
        a += b
        if i < n_layers - 1:
            act(a)
    return a, ForwardCache(params=params, layer_inputs=layer_inputs)


def encoder_backward(
    cache: ForwardCache, grad_embeddings: np.ndarray, out: list[np.ndarray] | None
) -> list[np.ndarray]:
    """Backpropagate d(loss)/d(embeddings) to parameter gradients.

    Returns [dW0, db0, dW1, db1, ...], aligned with EncoderParams.arrays().
    With ``out`` (arrays shaped like EncoderParams.arrays()) the gradients
    are written into those arrays, which are returned; with None they are
    freshly allocated. Both give the same bits.
    """
    params = cache.params
    delta = grad_embeddings
    expected = (cache.layer_inputs[0].shape[0], params.spec.output_dim)
    if delta.shape != expected:
        raise RuntimeError(
            f"stale or mismatched cache: grad_embeddings has shape {delta.shape}, "
            f"forward produced {expected}"
        )
    _, deriv_mul = ACTIVATIONS[params.spec.activation]
    grads = [None] * (2 * len(params.weights)) if out is None else out
    for i in range(len(params.weights) - 1, -1, -1):
        grads[2 * i] = np.matmul(delta.T, cache.layer_inputs[i], out=grads[2 * i])
        grads[2 * i + 1] = np.sum(delta, axis=0, out=grads[2 * i + 1])
        if i > 0:
            delta = deriv_mul(cache.layer_inputs[i], delta @ params.weights[i])
    return grads


class NonFiniteGradientError(ValueError):
    """A gradient handed to sgd_step holds a NaN or an infinity."""


# sgd_step updates each array in blocks of whole rows of about this many
# entries (256 KiB in float64, 128 KiB in float32)
SGD_BLOCK = 1 << 15


def sgd_step(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    velocities: list[np.ndarray],
    lr: float,
    momentum: float,
) -> None:
    """In-place update of each array p and its velocity v: v <- momentum*v + g;
    p <- p - lr*v.

    Every gradient is validated before any array is written, so a rejected
    step leaves parameters and velocities unchanged. Non-finite gradients
    raise NonFiniteGradientError so the trainer can surface the batch.
    """
    if len(arrays) != len(grads) or len(arrays) != len(velocities):
        raise ValueError("arrays, grads, and velocities must align")
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (a, g) in enumerate(zip(arrays, grads)):
            if a.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {a.shape}")
            # a finite sum means every entry is finite; only a sum that is
            # not (a NaN or inf entry, or finite entries that overflow) is
            # checked entry by entry
            if not np.isfinite(g.sum()) and not np.isfinite(g).all():
                raise NonFiniteGradientError(f"non-finite gradient in array {i}")
    # update in blocks of whole rows, about SGD_BLOCK entries each: lr*v
    # goes into one small buffer, and a block stays in cache for all four
    # elementwise passes, which give the same bits as whole-array passes
    row_size = [a.size // max(len(a), 1) for a in arrays]
    buf = np.empty(max([SGD_BLOCK, *row_size]), np.result_type(*velocities))
    for a, g, v, width in zip(arrays, grads, velocities, row_size):
        rows = max(1, SGD_BLOCK // max(width, 1))
        for i in range(0, len(a), rows):
            vb = v[i : i + rows]
            vb *= momentum
            vb += g[i : i + rows]
            lr_v = buf[: vb.size].reshape(vb.shape)
            np.multiply(lr, vb, out=lr_v)
            a[i : i + rows] -= lr_v


def lr_schedule(epoch: int, base_lr: float) -> float:
    """Step decay by 0.1 at epochs 60 and 80."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if epoch < 60:
        return base_lr
    if epoch < 80:
        return base_lr * 0.1
    return base_lr * 0.01


# finite_diff_check skips a coordinate as kink-adjacent when its two
# one-sided slopes differ by more than this, relative to the larger (or 1)
KINK_TOL = 1e-3
# finite_diff_check's step on each coordinate
FD_EPS = 1e-4


@dataclass
class FiniteDiffReport:
    max_rel_error: float
    n_checked: int
    n_kink_skipped: int
    n_small_skipped: int


def finite_diff_check(
    arrays: list[np.ndarray],
    loss_fn,
    analytic_grads: list[np.ndarray],
    n_coords: int,
    seed: int,
) -> FiniteDiffReport:
    """Compare analytic gradients against central finite differences.

    Samples up to n_coords coordinates and steps each by FD_EPS. Coordinates
    where the two one-sided slopes disagree beyond KINK_TOL are skipped as
    kink-adjacent (the test never consults the analytic value, so it cannot
    mask a wrong gradient); coordinates where both analytic and numeric are
    below 1e-8 are exempt from the relative comparison.
    """
    work = [np.array(a, dtype=np.float64) for a in arrays]
    base = float(loss_fn(work))
    sizes = [a.size for a in work]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(total, size=min(n_coords, total), replace=False))
    bounds = np.cumsum(sizes)

    max_rel = 0.0
    n_checked = n_kink = n_small = 0
    for flat in picked:
        ai = int(np.searchsorted(bounds, flat, side="right"))
        off = int(flat - (bounds[ai - 1] if ai > 0 else 0))
        orig = work[ai].flat[off]
        work[ai].flat[off] = orig + FD_EPS
        f_plus = float(loss_fn(work))
        work[ai].flat[off] = orig - FD_EPS
        f_minus = float(loss_fn(work))
        work[ai].flat[off] = orig

        s_plus = (f_plus - base) / FD_EPS
        s_minus = (base - f_minus) / FD_EPS
        if abs(s_plus - s_minus) > KINK_TOL * max(1.0, abs(s_plus), abs(s_minus)):
            n_kink += 1
            continue
        numeric = (f_plus - f_minus) / (2 * FD_EPS)
        analytic = float(analytic_grads[ai].flat[off])
        if abs(analytic) < 1e-8 and abs(numeric) < 1e-8:
            n_small += 1
            continue
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
        n_checked += 1
        if rel > max_rel:
            max_rel = rel
    return FiniteDiffReport(
        max_rel_error=max_rel,
        n_checked=n_checked,
        n_kink_skipped=n_kink,
        n_small_skipped=n_small,
    )
