"""Adam over named parameter dicts (real or complex arrays), and the one
minibatch training loop that both networks run."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .rng import substream

__all__ = ["AdamState", "TrainingDiverged", "adam_init", "adam_step", "with_precision", "train"]


class TrainingDiverged(RuntimeError):
    """A training batch's loss is not finite."""


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float) -> AdamState:
    """Zero moments in each parameter's precision; the second moment is real."""
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros(p.shape, dtype=p.real.dtype)
    return state


def with_precision(arrays: dict[str, np.ndarray], real) -> dict[str, np.ndarray]:
    """Named arrays in the real dtype `real`, complex ones in its complex
    counterpart (float32 -> complex64, float64 -> complex128); an array already
    in its dtype is not copied."""
    cplx = np.promote_types(real, np.complex64)
    return {k: v.astype(cplx if np.iscomplexobj(v) else real, copy=False)
            for k, v in arrays.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> dict[str, np.ndarray]:
    """One Adam update; returns new params, updates moments/step in state in place.

    Complex parameters keep a complex first moment; the second moment tracks
    |grad|^2 so the step is phase-equivariant. The in-place updates do the
    operations of p - lr (m/bc1) / (sqrt(v/bc2) + eps) in the same order, so
    the result is bit-identical to evaluating that expression. numpy divides a
    complex number by a real d as (re + im*0) * (1/d), so a complex step is
    scaled by 1/bc1 and 1/den instead, without the complex divide. The two
    differ only where a part is -0, which m never holds and a step only after
    underflow.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    new_params = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        if np.iscomplexobj(g):
            g2 = g.real ** 2
            g2 += g.imag ** 2
        else:
            g2 = g ** 2
        v = state.v[name]
        v *= state.beta2
        g2 *= 1.0 - state.beta2
        v += g2
        den = np.divide(v, bc2, out=np.empty_like(v))
        np.sqrt(den, out=den)
        den += state.eps
        if np.iscomplexobj(m):          # by reciprocals, see above
            step = np.multiply(m, 1.0 / bc1, out=np.empty_like(m))
            step *= state.lr
            step *= np.divide(1.0, den, out=den)
        else:
            step = np.divide(m, bc1, out=np.empty_like(m))  # arrays, also when 0-d
            step *= state.lr
            step /= den
        new_params[name] = np.subtract(p, step, out=step)
    return new_params


def train(params: dict[str, np.ndarray], batch_loss, n: int, cfg, seed: int, stage: int,
          project=lambda params: None, report=lambda params: {}):
    """Adam on named parameters over n samples; returns (params, per-episode trace).

    Parameters and moments are float32/complex64; they come back widened,
    exactly, to float64/complex128. Each episode takes the samples in the
    order of the `stage{stage}-order` substream, cfg.batch at a time: the
    loss node batch_loss(params, sel, tape) must be finite (else
    TrainingDiverged), then Adam steps and project(params) fixes the result
    in place. A trace entry is the mean batch loss plus report(params).
    """
    params = with_precision(params, np.float32)
    state = adam_init(params, lr=cfg.lr)
    order_rng = substream(seed, f"stage{stage}-order")
    trace = []
    for ep in range(cfg.episodes):
        order = order_rng.permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch):
            tape = ad.Tape()
            loss = batch_loss(params, order[lo:lo + cfg.batch], tape)
            lval = float(loss.value)
            if not np.isfinite(lval):
                raise TrainingDiverged(
                    f"stage-{stage} training diverged at episode {ep}: loss={lval}")
            params = adam_step(params, tape.backward(loss), state)
            project(params)
            losses.append(lval)
        trace.append({"episode": ep, "loss": float(np.mean(losses)), **report(params)})
    return with_precision(params, np.float64), trace
