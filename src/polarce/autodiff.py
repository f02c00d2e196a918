"""Reverse-mode autodiff tape over numpy arrays, with first-class complex support.

Complex tensors are differentiated through their real/imaginary parts: the
gradient stored for a complex node is dL/dRe + 1j*dL/dIm (for a real loss this
equals twice the Wirtinger derivative w.r.t. the conjugate variable). Gradients
of real-dtype nodes are kept real. Losses must be real scalars.

The tape records one op per node in execution order, so iterating the records
in reverse is a reverse topological traversal that touches each node exactly
once. The ops are the ones the two trained networks use.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tape", "Node", "add", "sub", "mul", "scale", "matmul", "hermitian",
    "relu", "soft_threshold", "conv2d", "batch_norm", "sum_abs2",
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

    @property
    def shape(self):
        return self.value.shape


class Record:
    __slots__ = ("op", "out", "ins", "aux")

    def __init__(self, op: str, out: int, ins: tuple, aux: dict | None):
        self.op = op
        self.out = out
        self.ins = ins
        self.aux = aux


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

    def constant(self, value) -> Node:
        return self.leaf(value, trainable=False)

    def _wrap(self, x) -> Node:
        if isinstance(x, Node):
            if x.tape is not self:
                raise ValueError("node belongs to a different tape")
            return x
        return self.constant(x)

    def _emit(self, op: str, ins: tuple[Node, ...], aux: dict | None = None) -> Node:
        in_ids = tuple(n.id for n in ins)
        out_val = _FORWARD[op]([self.values[i] for i in in_ids], aux)
        self.values.append(out_val)
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
                if contrib is None:
                    continue
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


_FORWARD = {
    "add": lambda ins, aux: ins[0] + ins[1],
    "sub": lambda ins, aux: ins[0] - ins[1],
    "mul": lambda ins, aux: ins[0] * ins[1],
    "scale": lambda ins, aux: aux["c"] * ins[0],
    "matmul": lambda ins, aux: ins[0] @ ins[1],
    "hermitian": lambda ins, aux: np.conj(ins[0].T),
    "relu": lambda ins, aux: np.maximum(ins[0], 0.0),
    "sum_abs2": lambda ins, aux: np.asarray(np.sum(ins[0].real ** 2 + ins[0].imag ** 2)
                                            if np.iscomplexobj(ins[0])
                                            else np.sum(ins[0] ** 2)),
}


def _soft_threshold_fwd(ins, aux):
    x, lam = ins
    if np.any(np.asarray(lam) < 0):
        raise ValueError("threshold must be nonnegative")
    mag = np.abs(x)
    keep = np.maximum(mag - lam, 0.0)
    return x * np.divide(keep, mag, out=np.zeros_like(mag), where=mag > 0)


def _batch_norm_fwd(ins, aux):
    x, gamma, beta = ins
    axes = _bn_axes(x)
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + aux["eps"])
    return gamma * ((x - mu) * inv) + beta


_FORWARD["soft_threshold"] = _soft_threshold_fwd
_FORWARD["batch_norm"] = _batch_norm_fwd
_FORWARD["conv2d"] = lambda ins, aux: _conv2d_fwd(ins[0], ins[1])


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


def add(a: Node, b) -> Node:
    return a.tape._emit("add", (a, a.tape._wrap(b)))


def sub(a: Node, b) -> Node:
    return a.tape._emit("sub", (a, a.tape._wrap(b)))


def mul(a: Node, b) -> Node:
    return a.tape._emit("mul", (a, a.tape._wrap(b)))


def scale(a: Node, c) -> Node:
    return a.tape._emit("scale", (a,), {"c": c})


def matmul(a: Node, b) -> Node:
    b = a.tape._wrap(b)
    if a.value.shape[-1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.value.shape} @ {b.value.shape}")
    return a.tape._emit("matmul", (a, b))


def hermitian(a: Node) -> Node:
    return a.tape._emit("hermitian", (a,))


def relu(a: Node) -> Node:
    return a.tape._emit("relu", (a,))


def soft_threshold(x: Node, lam) -> Node:
    return x.tape._emit("soft_threshold", (x, x.tape._wrap(lam)))


def conv2d(x: Node, w: Node) -> Node:
    return x.tape._emit("conv2d", (x, w))


def batch_norm(x: Node, gamma: Node, beta: Node, eps: float = 1e-5) -> Node:
    return x.tape._emit("batch_norm", (x, gamma, beta), {"eps": eps})


def sum_abs2(x: Node) -> Node:
    return x.tape._emit("sum_abs2", (x,))


def soft_threshold_array(x: np.ndarray, lam) -> np.ndarray:
    """Complex soft threshold on plain arrays (clamped at zero)."""
    return _soft_threshold_fwd([np.asarray(x), lam], None)

