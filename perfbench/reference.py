"""Reference computations made apart from the code under test.

A plain-NumPy forward of the Bonito basecaller read straight from a
state dict (no ``repro.nn`` layer code), best-path CTC decoding, and a
central finite-difference gradient.  The workloads check the program's
outputs against these.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _conv1d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
            kernel: int, stride: int) -> np.ndarray:
    """``(T, C_in)`` -> ``(T', C_out)``, zero padding ``kernel // 2``."""
    pad = kernel // 2
    padded = np.pad(x, ((pad, pad), (0, 0)))
    out_t = (len(padded) - kernel) // stride + 1
    # Columns ordered channel-major, tap-minor: weight row c*k + j.
    cols = np.stack([padded[t * stride:t * stride + kernel].T.reshape(-1)
                     for t in range(out_t)])
    return cols @ weight + bias


def _lstm(x: np.ndarray, w_ih: np.ndarray, w_hh: np.ndarray,
          bias: np.ndarray, reverse: bool) -> np.ndarray:
    """Gate order i, f, g, o; ``(T, C)`` -> ``(T, H)``."""
    hidden = w_hh.shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.empty((len(x), hidden))
    steps = range(len(x) - 1, -1, -1) if reverse else range(len(x))
    for t in steps:
        gates = x[t] @ w_ih + bias + h @ w_hh
        i = _sigmoid(gates[:hidden])
        f = _sigmoid(gates[hidden:2 * hidden])
        g = np.tanh(gates[2 * hidden:3 * hidden])
        o = _sigmoid(gates[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def bonito_logits(state: dict, config, signal: np.ndarray) -> np.ndarray:
    """Logits ``(frames, 5)`` of one signal under ``state`` weights."""
    x = np.asarray(signal, dtype=np.float64)[:, None]
    n_conv = len(config.conv_channels)
    for i in range(n_conv):
        stride = config.conv_stride if i == n_conv - 1 else 1
        x = _conv1d(x, state[f"encoder.layer{2 * i}.weight"],
                    state[f"encoder.layer{2 * i}.bias"],
                    config.conv_kernel, stride)
        x = x * _sigmoid(x)
    features = x
    for i in range(config.num_lstm_layers):
        x = _lstm(x, state[f"recurrent.layer{i}.weight_ih"],
                  state[f"recurrent.layer{i}.weight_hh"],
                  state[f"recurrent.layer{i}.bias"], reverse=(i % 2 == 0))
    if config.use_skip:
        x = x + features @ state["skip_proj.weight"] + state["skip_proj.bias"]
    return x @ state["decoder.weight"] + state["decoder.bias"]


def greedy_bases(logits: np.ndarray) -> np.ndarray:
    """Best-path CTC decode to base codes 0..3 (label 0 is blank)."""
    path = np.argmax(logits, axis=-1)
    keep = np.ones(len(path), dtype=bool)
    keep[1:] = path[1:] != path[:-1]
    labels = path[keep]
    return (labels[labels != 0] - 1).astype(np.int8)


def central_difference(loss_at, params: list[np.ndarray],
                       picks: list[tuple[int, tuple]],
                       eps: float = 1e-6) -> np.ndarray:
    """d loss / d param[idx] by central differences, for each pick.

    ``loss_at()`` evaluates the loss at the current parameter values;
    each picked entry is nudged in place and restored.
    """
    grads = np.empty(len(picks))
    for n, (p, idx) in enumerate(picks):
        original = params[p][idx]
        params[p][idx] = original + eps
        up = loss_at()
        params[p][idx] = original - eps
        down = loss_at()
        params[p][idx] = original
        grads[n] = (up - down) / (2 * eps)
    return grads
