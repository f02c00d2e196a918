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

Pruning. Each node is marked, when it is made, with whether it depends on a
trainable leaf. `backward` asks each op only for the gradients of its marked
operands, so nothing is computed toward constants: the data input of a
network's first convolution, `E^H` and `P` in the unrolled net, loss targets.

Accumulation. Every backward op returns plain arrays, one per operand. A
node's first gradient contribution is stored as given, and a later one is
added into it in place only if it is a new ndarray (its `base` is None). A
view is not: `add`, `sub` and `mul` hand views of the same g to several
operands through `_unbroadcast`. Nor is a numpy scalar, which reductions and
negations of 0-d arrays return and `np.add(..., out=)` cannot write into.
Otherwise the second contribution allocates the sum, and the same rule
applies to it.

Precision. A gradient takes the dtype of its node: `backward` seeds the loss
with ones of the loss's dtype, and each contribution is cast to the dtype of
the node it flows into, after a complex contribution into a real node is cut
to its real part. A float32 or complex64 network therefore runs its whole
backward pass in single precision, even when a float64 constant (a loss
normalization, say) promotes the loss itself to float64. For a float64 graph
every cast is a no-op.

Lifetime. `backward` frees each recorded value once its record has been
processed, since every consumer of a value was recorded after it, so the tape
shrinks as the backward pass proceeds. A tape therefore runs `backward` once:
a second call, or any read of a freed `Node.value`, raises a ValueError
saying the tape is used up.

Convolution layout. Images are [B, H, W, C] with same zero padding. The image,
padded on the H axis only, is read as rows [B*(H+k-1), W*Ci], and the kernel
is laid out as a block-Toeplitz matrix [W*Ci, k*W*Co] whose block di maps a
padded row to its contribution through kernel row di. Taps that would read
the W padding are left out of the matrix, so no product multiplies a padding
zero. The convolution is one GEMM of the two plus k shifted row sums; its
backward is two GEMMs against the same Toeplitz matrix. The matrix grows with
W^2, which suits the narrow images the denoiser sees (W = paths_bs).
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = [
    "Tape", "Node", "value", "add", "sub", "mul", "matmul", "hermitian",
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
        v = self.tape.values[self.id]
        if v is None:
            raise ValueError("the tape is used up: backward has freed this node's value")
        return v


Record = namedtuple("Record", "op out ins aux")     # ins and out are node ids


class Tape:
    def __init__(self):
        self.values: list[np.ndarray] = []
        self.records: list[Record] = []
        self.trainable: dict[int, str] = {}
        self.needs_grad: list[bool] = []            # per node: depends on a trainable leaf

    def _append(self, value: np.ndarray, needs_grad: bool) -> int:
        self.values.append(value)
        self.needs_grad.append(needs_grad)
        return len(self.values) - 1

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> Node:
        if trainable and name is None:
            raise ValueError("trainable leaves need a name")
        node_id = self._append(np.asarray(value), trainable)
        if trainable:
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
        out_id = self._append(out, any(self.needs_grad[i] for i in in_ids))
        self.records.append(Record(op, out_id, in_ids, aux))
        return Node(self, out_id)

    def backward(self, loss: Node) -> dict[str, np.ndarray]:
        """Gradients of a real scalar loss w.r.t. every trainable leaf.

        Unreachable parameters get zero gradients. Frees each recorded value
        once it is no longer needed, which uses the tape up.
        """
        lval = loss.value               # raises once an earlier backward freed it
        if np.asarray(lval).size != 1 or np.iscomplexobj(lval):
            raise ValueError("loss must be a real scalar")
        grads: dict[int, np.ndarray] = {loss.id: np.ones_like(lval)}
        for rec in reversed(self.records):
            g_out = grads.pop(rec.out, None)
            if g_out is not None:
                self._backprop(rec, g_out, grads)
            self.values[rec.out] = None
        out = {}
        for node_id, name in self.trainable.items():
            g = grads.get(node_id)
            if g is None:
                g = np.zeros_like(self.values[node_id])
            out[name] = np.asarray(g)
        return out

    def _backprop(self, rec: Record, g_out, grads: dict) -> None:
        """Pass g_out through one record; its contributions die on return."""
        in_vals = [self.values[i] for i in rec.ins]
        need = [self.needs_grad[i] for i in rec.ins]
        contribs = _BACKWARD[rec.op](g_out, in_vals, self.values[rec.out], rec.aux, need)
        for node_id, contrib in zip(rec.ins, contribs):
            if contrib is not None:
                self._accumulate(grads, node_id, contrib)

    def _accumulate(self, grads: dict, node_id: int, contrib) -> None:
        """Add one gradient contribution to node_id (see the module docstring)."""
        dtype = self.values[node_id].dtype
        if np.iscomplexobj(contrib) and dtype.kind != "c":
            contrib = contrib.real
        if contrib.dtype != dtype:
            contrib = contrib.astype(dtype)
        cur = grads.get(node_id)
        if cur is None:
            grads[node_id] = contrib
        elif isinstance(cur, np.ndarray) and cur.base is None:
            np.add(cur, contrib, out=cur)
        else:
            grads[node_id] = cur + contrib


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


def _hermitian_copy(a: np.ndarray) -> np.ndarray:
    """a^H as a new C-contiguous array."""
    return np.conjugate(a.T, out=np.empty(a.T.shape, dtype=a.dtype))


def _conv_rows(x: np.ndarray, k: int) -> np.ndarray:
    """x zero-padded by k//2 on the H axis, as rows [B*Hp, W*Ci]."""
    b, h, w, c = x.shape
    pad = k // 2
    xp = np.zeros((b, h + 2 * pad, w, c), dtype=x.dtype)
    xp[:, pad:pad + h] = x
    return xp.reshape(b * (h + 2 * pad), w * c)


def _conv_columns(width: int, k: int):
    """(output column j, image columns it reads, their taps dj) as slices."""
    pad = k // 2
    for j in range(width):
        lo, hi = max(j - pad, 0), min(j + pad + 1, width)
        yield j, slice(lo, hi), slice(lo - j + pad, hi - j + pad)


def _conv_toeplitz(w: np.ndarray, width: int) -> np.ndarray:
    """Kernel [k, k, Ci, Co] as the block-Toeplitz matrix [W*Ci, k*W*Co].

    Entry [(j+dj-k//2)*Ci + c, (di*W + j)*Co + o] is w[di, dj, c, o]; taps
    that fall outside the image are dropped.
    """
    k, _, ci, co = w.shape
    t = np.zeros((width, ci, k, width, co), dtype=w.dtype)
    taps = w.transpose(1, 2, 0, 3)                      # [dj, c, di, o]
    for j, cols, dj in _conv_columns(width, k):
        t[cols, :, :, j] = taps[dj]
    return t.reshape(width * ci, k * width * co)


def _conv2d_fwd(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    k = w.shape[0]
    if w.shape[1] != k or k % 2 != 1:
        raise ValueError("conv kernels must be square with odd side")
    b, h, width, _ = x.shape
    co = w.shape[3]
    y = (_conv_rows(x, k) @ _conv_toeplitz(w, width)).reshape(b, h + k - 1, k, width * co)
    out = y[:, :h, 0].copy()
    for di in range(1, k):
        out += y[:, di:di + h, di]
    return out.reshape(b, h, width, co)


def _soft_threshold_fwd(x, lam):
    """x scaled by max(|x| - lam, 0) / |x|, in one real buffer besides |x|."""
    if np.any(np.asarray(lam) < 0):
        raise ValueError("threshold must be nonnegative")
    mag = np.abs(x)
    shrink = np.subtract(mag, lam)
    np.maximum(shrink, 0.0, out=shrink)
    mag[mag == 0] = 1.0                 # shrink is 0 there
    shrink /= mag
    return x * shrink


def _sum_abs2_fwd(x):
    sq = x.real ** 2 + x.imag ** 2 if np.iscomplexobj(x) else x ** 2
    return np.asarray(np.sum(sq))


def _batch_norm_fwd(x, gamma, beta, aux):
    """Batch-normalized x; leaves the per-channel mean, variance and 1/std in aux."""
    axes = _bn_axes(x)
    mu = x.mean(axis=axes)
    out = x - mu
    var = np.add.reduce(np.square(out), axis=axes) / (x.size // x.shape[-1])  # as np.var
    inv = 1.0 / np.sqrt(var + aux["eps"])
    aux["mu"], aux["var"], aux["inv"] = mu, var, inv
    out *= inv
    out *= gamma
    out += beta
    return out


# Each backward takes (g, operand values, output value, aux, need) and returns
# one gradient per operand, None where need is false.

def _bwd_add(g, ins, out, aux, need):
    return [_unbroadcast(g, v.shape) if n else None for v, n in zip(ins, need)]


def _bwd_sub(g, ins, out, aux, need):
    return [_unbroadcast(g, ins[0].shape) if need[0] else None,
            _unbroadcast(-g, ins[1].shape) if need[1] else None]


def _bwd_mul(g, ins, out, aux, need):
    a, b = ins
    return [_unbroadcast(g * np.conj(b), a.shape) if need[0] else None,
            _unbroadcast(g * np.conj(a), b.shape) if need[1] else None]


def _bwd_matmul(g, ins, out, aux, need):
    """dA = g b^H and dB = a^H g, each from whichever form copies less.

    g b^H conjugates a copy of the smaller of g and b. a^H g copies a; (g^H a)^H
    copies g and the b-sized product, which keeps a dictionary a from being
    copied when only a few columns of b depend on it.
    """
    a, b = ins
    ga = gb = None
    if need[0] and g.size >= b.size:
        ga = g @ np.conj(b).T
    elif need[0]:
        ga = np.conj(g) @ b.T
        np.conj(ga, out=ga)
    if need[1]:
        gb = (np.conj(a.T) @ g if a.size <= g.size + b.size
              else _hermitian_copy(np.conj(g).T @ a))
    return [ga, gb]


def _bwd_soft_threshold(g, ins, out, aux, need):
    """With u = x/|x| and z = conj(u) g on the active set |x| > lam:
    dx = u (Re z + j (1 - lam/|x|) Im z) and dlam = -Re z; both are 0 elsewhere."""
    x, lam = ins
    inv = np.abs(x)                     # becomes 1/|x| on the active set, 0 elsewhere
    active = np.greater(inv, lam)
    inv += ~active                      # |x| + 1 off it, so every divide is finite
    np.divide(1.0, inv, out=inv)
    inv *= active
    z = np.conj(x)
    z *= g
    z *= inv
    glam = -_unbroadcast(z.real, np.shape(lam)) if need[1] else None
    if not need[0]:
        return [None, glam]
    if np.iscomplexobj(z):
        shrink = np.multiply(lam, inv)
        z.imag *= np.subtract(1.0, shrink, out=shrink)
    z *= x
    z *= inv
    return [z, glam]


def _bwd_conv2d(g, ins, out, aux, need):
    x, w = ins
    k = w.shape[0]
    pad = k // 2
    b, h, width, ci = x.shape
    co = w.shape[3]
    # gs[b, h', di] is the gradient padded row h' receives through kernel row di
    gs = np.zeros((b, h + 2 * pad, k, width * co), dtype=g.dtype)
    g_rows = g.reshape(b, h, width * co)
    for di in range(k):
        gs[:, di:di + h, di] = g_rows
    gs = gs.reshape(b * (h + 2 * pad), k * width * co)
    gx = gw = None
    if need[0]:
        gxp = (gs @ _conv_toeplitz(w, width).T).reshape(b, h + 2 * pad, width, ci)
        gx = np.ascontiguousarray(gxp[:, pad:pad + h])
    if need[1]:
        gt = (_conv_rows(x, k).T @ gs).reshape(width, ci, k, width, co)
        gw = np.zeros((k, ci, k, co), dtype=gt.dtype)   # [dj, c, di, o]
        for j, cols, dj in _conv_columns(width, k):
            gw[dj] += gt[cols, :, :, j]
        gw = np.ascontiguousarray(gw.transpose(2, 0, 1, 3))
    return [gx, gw]


def _bwd_batch_norm(g, ins, out, aux, need):
    x, gamma, beta = ins
    axes = _bn_axes(x)
    n = x.size // x.shape[-1]
    inv = aux["inv"]
    xh = x - aux["mu"]
    xh *= inv
    gbeta = g.sum(axis=axes)
    gx = g * xh
    ggamma = gx.sum(axis=axes)
    if need[0]:             # gamma inv (g - gbeta/n - xh ggamma/n), in xh and gx
        np.subtract(g, gbeta / n, out=gx)
        xh *= ggamma / n
        gx -= xh
        gx *= gamma * inv
    return [gx if need[0] else None, ggamma if need[1] else None, gbeta if need[2] else None]


_BACKWARD = {
    "add": _bwd_add,
    "sub": _bwd_sub,
    "mul": _bwd_mul,
    "matmul": _bwd_matmul,
    "hermitian": lambda g, ins, out, aux, need: [_hermitian_copy(g)],
    "relu": lambda g, ins, out, aux, need: [g * (ins[0] > 0)],
    "soft_threshold": _bwd_soft_threshold,
    "conv2d": _bwd_conv2d,
    "batch_norm": _bwd_batch_norm,
    "sum_abs2": lambda g, ins, out, aux, need: [2.0 * g * ins[0]],
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
    """(normalized x, batch mean, batch variance), the statistics per channel."""
    aux = {"eps": eps}
    out = _op("batch_norm", lambda *v: _batch_norm_fwd(*v, aux), (x, gamma, beta), aux)
    return out, aux["mu"], aux["var"]


def sum_abs2(x):
    return _op("sum_abs2", _sum_abs2_fwd, (x,))
