"""Reverse-mode autodiff tape over numpy arrays, with first-class complex support.

Complex tensors are differentiated through their real/imaginary parts: the
gradient stored for a complex node is dL/dRe + 1j*dL/dIm (for a real loss this
equals twice the Wirtinger derivative w.r.t. the conjugate variable). Gradients
of real-dtype nodes are kept real. Losses must be real scalars.

The tape records one op per node in execution order, so iterating the records
in reverse is a reverse topological traversal that touches each node exactly
once. The ops are the ones the two trained networks use.

Every op also runs eagerly: when no operand is a `Node` it computes on the
plain arrays and returns an array, recording nothing. A network is therefore
written once; its forward pass is differentiable when its parameters are
leaves of a tape and plain numpy otherwise. Plain operands of a recorded op
become constants of the operand node's tape.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tape", "Node", "value", "add", "sub", "mul", "scale", "matmul",
    "hermitian", "relu", "soft_threshold", "conv2d", "batch_norm", "sum_abs2",
]


class Node:
    """Handle to one tape entry."""

    __slots__ = ("tape", "id")

    def __init__(self, tape: "Tape", node_id: int):
        self.tape = tape
        self.id = node_id

    @property
    def value(self) -> np.ndarray:
        return self.tape.values[self.id]


Record = namedtuple("Record", "op out ins aux")     # ins and out are node ids


class Tape:
    def __init__(self):
        self.values: list[np.ndarray] = []
        self.records: list[Record] = []
        self.trainable: dict[int, str] = {}

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> Node:
        value = np.asarray(value)
        self.values.append(value)
        node_id = len(self.values) - 1
        if trainable:
            if name is None:
                raise ValueError("trainable leaves need a name")
            self.trainable[node_id] = name
        return Node(self, node_id)

    def _wrap(self, x) -> Node:
        if isinstance(x, Node):
            if x.tape is not self:
                raise ValueError("node belongs to a different tape")
            return x
        return self.leaf(x)

    def _emit(self, op: str, ins: tuple, out: np.ndarray, aux: dict | None) -> Node:
        """Record op's output out, computed from the operands ins."""
        in_ids = tuple(self._wrap(x).id for x in ins)
        self.values.append(out)
        out_id = len(self.values) - 1
        self.records.append(Record(op, out_id, in_ids, aux))
        return Node(self, out_id)

    def backward(self, loss: Node) -> dict[str, np.ndarray]:
        """Gradients of a real scalar loss w.r.t. every trainable leaf.

        Unreachable parameters get zero gradients.
        """
        lval = self.values[loss.id]
        if np.asarray(lval).size != 1 or np.iscomplexobj(lval):
            raise ValueError("loss must be a real scalar")
        grads: dict[int, np.ndarray] = {loss.id: np.ones_like(np.asarray(lval, dtype=np.float64))}
        for rec in reversed(self.records):
            g_out = grads.pop(rec.out, None)
            if g_out is None:
                continue
            in_vals = [self.values[i] for i in rec.ins]
            contribs = _BACKWARD[rec.op](g_out, in_vals, self.values[rec.out], rec.aux)
            for node_id, contrib in zip(rec.ins, contribs):
                if not np.iscomplexobj(self.values[node_id]) and np.iscomplexobj(contrib):
                    contrib = contrib.real
                if node_id in grads:
                    grads[node_id] = grads[node_id] + contrib
                else:
                    grads[node_id] = contrib
        out = {}
        for node_id, name in self.trainable.items():
            g = grads.get(node_id)
            if g is None:
                g = np.zeros_like(self.values[node_id])
            out[name] = np.asarray(g)
        return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that broadcasting expanded."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _bn_axes(x: np.ndarray) -> tuple:
    return tuple(range(x.ndim - 1))


def _conv2d_fwd(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    k = w.shape[0]
    if w.shape[1] != k or k % 2 != 1:
        raise ValueError("conv kernels must be square with odd side")
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))  # [B,H,W,Ci,k,k]
    return np.einsum("bhwcij,ijco->bhwo", win, w, optimize=True)


def _soft_threshold_fwd(x, lam):
    if np.any(np.asarray(lam) < 0):
        raise ValueError("threshold must be nonnegative")
    mag = np.abs(x)
    keep = np.maximum(mag - lam, 0.0)
    return x * np.divide(keep, mag, out=np.zeros_like(mag), where=mag > 0)


def _sum_abs2_fwd(x):
    sq = x.real ** 2 + x.imag ** 2 if np.iscomplexobj(x) else x ** 2
    return np.asarray(np.sum(sq))


def _batch_norm_fwd(x, gamma, beta, eps):
    axes = _bn_axes(x)
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + eps)
    return gamma * ((x - mu) * inv) + beta


def _bwd_add(g, ins, out, aux):
    return [_unbroadcast(g, ins[0].shape), _unbroadcast(g, ins[1].shape)]


def _bwd_sub(g, ins, out, aux):
    return [_unbroadcast(g, ins[0].shape), _unbroadcast(-g, ins[1].shape)]


def _bwd_mul(g, ins, out, aux):
    a, b = ins
    return [_unbroadcast(g * np.conj(b), a.shape), _unbroadcast(g * np.conj(a), b.shape)]


def _bwd_matmul(g, ins, out, aux):
    a, b = ins
    return [g @ np.conj(b).T, np.conj(a).T @ g]


def _bwd_soft_threshold(g, ins, out, aux):
    x, lam = ins
    mag = np.abs(x)
    active = mag > lam
    safe = np.where(active, mag, 1.0)
    if np.iscomplexobj(x):
        gx = g * (1.0 - lam / (2.0 * safe)) + np.conj(g) * lam * x * x / (2.0 * safe ** 3)
    else:
        gx = g
    gx = np.where(active, gx, 0.0)
    glam = np.where(active, -np.real(np.conj(g) * x) / safe, 0.0)
    return [gx, _unbroadcast(glam, np.asarray(lam).shape)]


def _bwd_conv2d(g, ins, out, aux):
    x, w = ins
    k = w.shape[0]
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))
    gw = np.einsum("bhwcij,bhwo->ijco", win, g, optimize=True)
    w_rot = w[::-1, ::-1].transpose(0, 1, 3, 2)  # flip taps, swap in/out channels
    gx = _conv2d_fwd(g, w_rot)
    return [gx, gw]


def _bwd_batch_norm(g, ins, out, aux):
    x, gamma, beta = ins
    axes = _bn_axes(x)
    n = x.size // x.shape[-1]
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + aux["eps"])
    xh = (x - mu) * inv
    gbeta = g.sum(axis=axes)
    ggamma = (g * xh).sum(axis=axes)
    gx = gamma * inv * (g - gbeta / n - xh * (ggamma / n))
    return [gx, ggamma, gbeta]


_BACKWARD = {
    "add": _bwd_add,
    "sub": _bwd_sub,
    "mul": _bwd_mul,
    "scale": lambda g, ins, out, aux: [np.conj(aux["c"]) * g],
    "matmul": _bwd_matmul,
    "hermitian": lambda g, ins, out, aux: [np.conj(g.T)],
    "relu": lambda g, ins, out, aux: [g * (ins[0] > 0)],
    "soft_threshold": _bwd_soft_threshold,
    "conv2d": _bwd_conv2d,
    "batch_norm": _bwd_batch_norm,
    "sum_abs2": lambda g, ins, out, aux: [2.0 * g * ins[0]],
}


def _op(op: str, forward, ins: tuple, aux: dict | None = None):
    """forward(*arrays) of the operands, recorded when an operand is a node."""
    out = forward(*(value(x) for x in ins))
    tape = next((x.tape for x in ins if isinstance(x, Node)), None)
    return out if tape is None else tape._emit(op, ins, out, aux)


def value(x) -> np.ndarray:
    """The array behind a node, or x itself as an array."""
    return x.value if isinstance(x, Node) else np.asarray(x)


def add(a, b):
    return _op("add", np.add, (a, b))


def sub(a, b):
    return _op("sub", np.subtract, (a, b))


def mul(a, b):
    return _op("mul", np.multiply, (a, b))


def scale(a, c):
    return _op("scale", lambda x: c * x, (a,), {"c": c})


def matmul(a, b):
    return _op("matmul", np.matmul, (a, b))


def hermitian(a):
    return _op("hermitian", lambda x: np.conj(x.T), (a,))


def relu(a):
    return _op("relu", lambda x: np.maximum(x, 0.0), (a,))


def soft_threshold(x, lam):
    """Complex soft threshold max(|x| - lam, 0) e^{j arg x}; lam must be >= 0."""
    return _op("soft_threshold", _soft_threshold_fwd, (x, lam))


def conv2d(x, w):
    return _op("conv2d", _conv2d_fwd, (x, w))


def batch_norm(x, gamma, beta, eps: float = 1e-5):
    return _op("batch_norm", lambda *v: _batch_norm_fwd(*v, eps), (x, gamma, beta),
               {"eps": eps})


def sum_abs2(x):
    return _op("sum_abs2", _sum_abs2_fwd, (x,))
