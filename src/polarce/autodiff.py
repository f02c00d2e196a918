"""Reverse-mode autodiff tape over numpy arrays, with first-class complex support.

Complex tensors are differentiated through their real/imaginary parts: the
gradient stored for a complex node is dL/dRe + 1j*dL/dIm (for a real loss this
equals twice the Wirtinger derivative w.r.t. the conjugate variable). Gradients
of real-dtype nodes are kept real. Losses must be real scalars.

The tape records one op per node in execution order, so iterating the records
in reverse is a reverse topological traversal that touches each node exactly
once. The ops are the ones the two trained networks use; `take` reads one
layer's entry of a [layers] parameter, such as the unrolled net's thresholds.

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
Otherwise the stored gradient is added into the contribution if that is a new
ndarray, with the same bytes since floating-point addition commutes; only when
neither is does the sum get a new array. The same rule applies to the sum.

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
saying the tape is used up. The conjugate transpose a^H that a matmul's
backward reads is made once per pass and dropped when the record that made a
is reached, so the unrolled net's Psi^H is made once, not once per layer; for
the output of `hermitian` it is that op's own input, and nothing is copied.
`matmul(a, b, c)` records a @ b + c as one op, so the tape keeps no value of
the product alone.

Layout. `hermitian`, and the a^H of a matmul's backward, are C-contiguous.
numpy hands BLAS a C-ordered operand as it is and an F-ordered one
transposed. With two or more columns both give the same bytes, and a
C-contiguous [6419, 30] W^H times a [30, 32] batch in complex64 runs in about
two thirds of the time. A one-column product is a gemv instead, whose kernels
for the two layouts sum in different orders: there the bytes differ from those
of an F-ordered operand, within the rounding of the sums.

Convolution layout. Images are [B, H, W, C] and kernels [k, 1, Ci, Co], k
odd, with same zero padding; a k x 1 kernel convolves each image column on its
own. The image, padded on the H axis only, is read as rows [B*(H+k-1)*W, Ci]
and the kernel as the tap matrix [Ci, k*Co]. The convolution is one GEMM of
the two plus k shifted row sums; its backward is two GEMMs against the same
tap matrix.
"""
from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

__all__ = [
    "Tape", "Node", "value", "add", "sub", "mul", "matmul", "hermitian",
    "relu", "soft_threshold", "conv2d", "batch_norm", "sum_abs2", "take",
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
        # a hermitian output's conjugate transpose is the op's own input
        adjoints = {rec.out: self.values[rec.ins[0]]
                    for rec in self.records if rec.op == "hermitian"}
        for rec in reversed(self.records):
            adjoints.pop(rec.out, None)         # every reader of rec.out has run
            g_out = grads.pop(rec.out, None)
            if g_out is not None:
                self._backprop(rec, g_out, grads, adjoints)
            self.values[rec.out] = None
        out = {}
        for node_id, name in self.trainable.items():
            g = grads.get(node_id)
            if g is None:
                g = np.zeros_like(self.values[node_id])
            out[name] = np.asarray(g)
        return out

    def _backprop(self, rec: Record, g_out, grads: dict, adjoints: dict) -> None:
        """Pass g_out through one record; its contributions die on return."""
        in_vals = [self.values[i] for i in rec.ins]
        need = [self.needs_grad[i] for i in rec.ins]
        aux = rec.aux
        if rec.op == "matmul":
            aux = functools.partial(self._adjoint, rec.ins[0], adjoints)
        contribs = _BACKWARD[rec.op](g_out, in_vals, self.values[rec.out], aux, need)
        for node_id, contrib in zip(rec.ins, contribs):
            if contrib is not None:
                self._accumulate(grads, node_id, contrib)

    def _adjoint(self, node_id: int, adjoints: dict) -> np.ndarray:
        """node_id's value conjugate-transposed, C-contiguous, made once per pass."""
        ah = adjoints.get(node_id)
        if ah is None:
            ah = adjoints[node_id] = _hermitian_copy(self.values[node_id])
        return ah

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
        elif isinstance(contrib, np.ndarray) and contrib.base is None:
            grads[node_id] = np.add(contrib, cur, out=contrib)
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


def _channel_sums(x: np.ndarray) -> np.ndarray:
    """Sums over every axis but the last, in np.add.reduce's order.

    With two or more channels that order is row after row, which einsum keeps
    and runs faster; a single channel np.add.reduce sums pairwise.
    """
    rows = x.reshape(-1, x.shape[-1])
    return np.einsum("ij->j", rows) if rows.shape[1] > 1 else np.add.reduce(rows, axis=0)


def _hermitian_copy(a: np.ndarray) -> np.ndarray:
    """a^H as a new C-contiguous array."""
    return np.conjugate(a.T, out=np.empty(a.T.shape, dtype=a.dtype))


def _conv_rows(x: np.ndarray, k: int) -> np.ndarray:
    """x zero-padded by k//2 on the H axis, as rows [B*Hp*W, Ci]."""
    b, h, w, c = x.shape
    pad = k // 2
    xp = np.zeros((b, h + 2 * pad, w, c), dtype=x.dtype)
    xp[:, pad:pad + h] = x
    return xp.reshape(-1, c)


def _conv_taps(w: np.ndarray) -> np.ndarray:
    """Kernel [k, 1, Ci, Co] as the C-contiguous tap matrix [Ci, k*Co]."""
    k, _, ci, co = w.shape
    # a copy: for Co = 1 the transpose reshapes to a strided view, and a
    # strided GEMM operand rounds differently
    return np.ascontiguousarray(w[:, 0].transpose(1, 0, 2)).reshape(ci, k * co)


def _conv2d_fwd(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    k = w.shape[0]
    if w.shape[1] != 1 or k % 2 != 1:
        raise ValueError("conv kernels must be k x 1 with odd k")
    b, h, width, _ = x.shape
    y = (_conv_rows(x, k) @ _conv_taps(w)).reshape(b, h + k - 1, width, k, w.shape[3])
    out = y[:, :h, :, 0].copy()
    for di in range(1, k):
        out += y[:, di:di + h, :, di]
    return out


def _soft_threshold_fwd(x, lam, out=None):
    """x scaled by max(|x| - lam, 0) / |x|, in one real buffer besides |x|;
    written into out if given and of the result's dtype."""
    if np.any(np.asarray(lam) < 0):
        raise ValueError("threshold must be nonnegative")
    mag = np.abs(x)
    shrink = np.subtract(mag, lam)
    np.maximum(shrink, 0.0, out=shrink)
    mag[mag == 0] = 1.0                 # shrink is 0 there
    shrink /= mag
    if out is not None and np.result_type(x, shrink) != out.dtype:
        out = None
    return np.multiply(x, shrink, out=out)


def _sum_abs2_fwd(x):
    sq = x.real ** 2 + x.imag ** 2 if np.iscomplexobj(x) else x ** 2
    return np.asarray(np.sum(sq))


def _batch_norm_fwd(x, gamma, beta, aux):
    """Batch-normalized x; leaves the per-channel mean, variance and 1/std in aux."""
    n = x.size // x.shape[-1]
    mu = _channel_sums(x) / n                           # as np.mean and np.var
    out = x - mu
    var = _channel_sums(np.square(out)) / n
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


def _bwd_matmul(g, ins, out, adjoint, need):
    """dA = g b^H, dB = a^H g and, for a @ b + c, dC = g, each from whichever
    form copies less.

    g b^H conjugates a copy of the smaller of g and b. a^H g reads adjoint(),
    which makes a^H once per backward pass; (g^H a)^H copies g and the b-sized
    product instead, which keeps a dictionary a from being copied when only a
    few columns of b depend on it.
    """
    a, b = ins[:2]
    ga = gb = None
    if need[0] and g.size >= b.size:
        ga = g @ np.conj(b).T
    elif need[0]:
        ga = np.conj(g) @ b.T
        np.conj(ga, out=ga)
    if need[1]:
        gb = (adjoint() @ g if a.size <= g.size + b.size
              else _hermitian_copy(np.conj(g).T @ a))
    if len(ins) == 2:
        return [ga, gb]
    return [ga, gb, _unbroadcast(g, ins[2].shape) if need[2] else None]


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
    k, _, ci, co = w.shape
    pad = k // 2
    b, h, width, _ = x.shape
    # gs[b, h', j, di] is the gradient padded row h' receives through tap di
    gs = np.zeros((b, h + 2 * pad, width, k, co), dtype=g.dtype)
    for di in range(k):
        gs[:, di:di + h, :, di] = g
    gs = gs.reshape(-1, k * co)
    gx = gw = None
    if need[0]:
        gxp = (gs @ _conv_taps(w).T).reshape(b, h + 2 * pad, width, ci)
        gx = np.ascontiguousarray(gxp[:, pad:pad + h])
    if need[1]:
        gt = (_conv_rows(x, k).T @ gs).reshape(ci, k, co)
        gw = np.ascontiguousarray(gt.transpose(1, 0, 2))[:, None]
    return [gx, gw]


def _bwd_batch_norm(g, ins, out, aux, need):
    x, gamma, beta = ins
    n = x.size // x.shape[-1]
    inv = aux["inv"]
    xh = x - aux["mu"]
    xh *= inv
    gbeta = _channel_sums(g)
    gx = g * xh
    ggamma = _channel_sums(gx)
    if need[0]:             # gamma inv (g - gbeta/n - xh ggamma/n), in xh and gx
        np.subtract(g, gbeta / n, out=gx)
        xh *= ggamma / n
        gx -= xh
        gx *= gamma * inv
    return [gx if need[0] else None, ggamma if need[1] else None, gbeta if need[2] else None]


def _bwd_take(g, ins, out, aux, need):
    gx = np.zeros_like(ins[0])
    gx[aux["t"]] = g
    return [gx]


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
    "take": _bwd_take,
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


def _matmul_add(a, b, c):
    out = a @ b
    return np.add(out, c, out=out if np.result_type(out, c) == out.dtype else None)


def matmul(a, b, c=None):
    """a @ b, plus c if given; the tape then keeps no value of the product alone."""
    if c is None:
        return _op("matmul", np.matmul, (a, b))
    return _op("matmul", _matmul_add, (a, b, c))


def hermitian(a):
    """a^H as a new C-contiguous array (see Layout)."""
    return _op("hermitian", _hermitian_copy, (a,))


def relu(a):
    return _op("relu", lambda x: np.maximum(x, 0.0), (a,))


def soft_threshold(x, lam, overwrite_x: bool = False):
    """Complex soft threshold max(|x| - lam, 0) e^{j arg x}; lam must be >= 0.

    With overwrite_x, an untaped call may write the result into x, which the
    caller then no longer reads. A taped call never does: the backward pass
    reads x.
    """
    if overwrite_x and isinstance(x, np.ndarray) and not isinstance(lam, Node):
        return _soft_threshold_fwd(x, lam, out=x)
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


def take(x, t: int):
    """Entry t of a 1-d array, as a 0-d array."""
    return _op("take", lambda v: np.asarray(v[t]), (x,), {"t": t})
