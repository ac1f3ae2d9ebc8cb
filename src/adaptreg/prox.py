"""Proximal kernels: Huber loss, soft shrinkage, the Huber prox, and the
label-stack projection.

The Huber loss is the Moreau-Yosida envelope of the absolute value,

    phi_mu(x) = inf_r { |r| + (x - r)^2 / (2 mu) },

whose minimizer is the soft shrinkage T(x | mu); envelope_at evaluates
the objective at a given r.  huber_prox and huber_prox_vec are the
proximal maps of t phi_mu itself.

Kernel contract of huber, huber_vec, envelope_at, shrink, shrink_vec,
huber_prox, huber_prox_vec and vector_norm:

* the two components of a 2-vector field (last axis) are read directly,
  never reduced over, so a vector field may be interleaved or
  component-planar, and every intermediate is written with out= into
  one of a few output-sized buffers instead of a fresh temporary;
* those buffers can be passed by keyword: out for the result and
  scratch for the one intermediate; a kernel given none allocates them.
  out must not share memory with an input, except where a kernel says
  so; huber_vec, shrink_vec and huber_prox_vec can read a precomputed
  norm= |v|, which only huber_prox_vec's scratch may overwrite; the Huber
  prox also takes knee for mu + t;
* the result is bitwise equal, sign of zero included, to the textbook
  formula evaluated with full-size temporaries (NaN stays NaN, its
  payload may differ);
* a scalar or 0-d input gives a Python float, arrays broadcast
  pointwise, the threshold t of shrink may be an array that broadcasts
  against x, and so may r of envelope_at.
"""

from __future__ import annotations

import numpy as np


def vector_norm(v, *, out=None, scratch=None) -> np.ndarray:
    """sqrt(v_0^2 + v_1^2) over the last axis of a 2-vector field, as an
    (...,) array; scratch takes v_1^2."""
    v = np.asarray(v, dtype=np.float64)
    v0 = v[..., 0]
    v1 = v[..., 1]
    norm = np.multiply(v0, v0, out=np.empty(v.shape[:-1]) if out is None else out)
    norm += np.multiply(v1, v1, out=scratch)
    return np.sqrt(norm, out=norm)


def _select(mask: np.ndarray, a: np.ndarray, out: np.ndarray) -> None:
    """out = a where mask, else out, bit for bit; a is overwritten.

    A branch-free select on the float64 bit patterns, out ^ ((out ^ a) *
    mask): np.where and np.copyto(..., where=) branch per entry, which on
    a mixed mask costs three times as much."""
    ai = a.view(np.int64)
    oi = out.view(np.int64)
    np.bitwise_xor(ai, oi, out=ai)
    np.multiply(ai, mask, out=ai)
    np.bitwise_xor(oi, ai, out=oi)


def _huber(x: np.ndarray, ax: np.ndarray, mu: float, out: np.ndarray, scratch: np.ndarray):
    """Huber loss of x given its magnitude ax, written into out: x^2/(2 mu)
    where ax <= mu, ax - mu/2 elsewhere.  scratch takes ax - mu/2 and may
    be ax itself; out must share memory with neither x nor ax."""
    if mu <= 0:
        raise ValueError("huber threshold must be positive")
    # where ax is NaN, so is x, and both branches give NaN
    linear = ax > mu
    np.multiply(x, x, out=out)
    out /= 2.0 * mu
    _select(linear, np.subtract(ax, mu / 2.0, out=scratch), out)
    return out if out.ndim else float(out)


def huber(x, mu: float, *, out=None, scratch=None):
    """Huber loss: x^2/(2 mu) for |x| <= mu, |x| - mu/2 beyond.  scratch
    takes |x|."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x, out=np.empty(x.shape) if scratch is None else scratch)
    return _huber(x, ax, mu, np.empty(x.shape) if out is None else out, ax)


def huber_vec(v, mu: float, *, norm=None, out=None, scratch=None):
    """Huber loss of the Euclidean norm of 2-vectors (last axis).  With
    norm given, |v| is read from it and v is not; else scratch takes |v|."""
    v = np.asarray(v, dtype=np.float64)
    shape = v.shape[:-1]
    out = np.empty(shape) if out is None else out
    if scratch is None:
        scratch = np.empty(shape)
    if norm is None:
        norm = vector_norm(v, out=scratch, scratch=out)
    # |norm| is norm itself
    return _huber(norm, norm, mu, out, scratch)


def envelope_at(x, r, mu: float, *, out=None, scratch=None):
    """The envelope's objective at r: |r| + (x - r)^2 / (2 mu).  out may
    be x itself, which only the first, elementwise step reads; scratch,
    shaped like r, takes |r|."""
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, r.shape))
    np.subtract(x, r, out=out)
    np.square(out, out=out)
    out /= 2.0 * mu
    out += np.abs(r, out=scratch)
    return out if out.ndim else float(out)


def shrink(x, t, *, out=None, scratch=None):
    """Soft shrinkage T(x | t): move x toward zero by t, clipping at zero.

    scratch, shaped like x, takes sign(x) before anything else is
    written, so out may be x itself (scratch may not)."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, np.shape(t)))
    sign = np.sign(x, out=scratch)
    np.abs(x, out=out)
    out -= t
    np.maximum(out, 0.0, out=out)
    np.multiply(sign, out, out=out)
    return out if out.ndim else float(out)


def shrink_vec(v, t: float, *, norm=None, out=None):
    """Isotropic shrinkage of 2-vectors: v * max(0, 1 - t/|v|).

    The factor is formed in out's component 0; with norm given, |v| is
    read from it instead of computed."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(v.shape) if out is None else out
    factor = out[..., 0]
    if norm is None:
        vector_norm(v, out=factor, scratch=out[..., 1])
    else:
        np.copyto(factor, norm)
    # Guard the 0/0 at v = 0; the factor is 0 there anyway.
    np.copyto(factor, 1.0, where=~(factor > 0.0))
    np.divide(t, factor, out=factor)
    np.subtract(1.0, factor, out=factor)
    np.maximum(0.0, factor, out=factor)
    np.multiply(v[..., 1], factor, out=out[..., 1])
    np.multiply(v[..., 0], factor, out=out[..., 0])
    return out


def _prox_factor(ax, t, mu: float, out, knee):
    """1 - t / max(ax, mu + t) into out, which may be ax; knee, shaped like
    t, takes mu + t of an array t."""
    if np.ndim(t):
        t = np.asarray(t, dtype=np.float64)
        reach = np.add(t, mu, out=knee)
    else:
        t = float(t)
        reach = t + mu
    np.maximum(ax, reach, out=out)
    np.divide(t, out, out=out)
    return np.subtract(1.0, out, out=out)


def huber_prox(x, t, mu: float, *, out=None, scratch=None, knee=None):
    """Proximal map of t phi_mu at x, the minimizer d of
    t phi_mu(d) + (d - x)^2 / 2: x mu/(mu + t) where |x| <= mu + t, else
    x - t sign(x), as the one formula

        x (1 - t / max(|x|, mu + t)).

    t >= 0 may be an array that broadcasts against x.  t = 0 returns x,
    and x = 0 gives a zero of x's sign; mu + t > 0, so nothing divides by
    zero.  scratch, shaped like x, takes |x| and then the factor; knee,
    shaped like an array t, takes mu + t.  out may be x itself."""
    x = np.asarray(x, dtype=np.float64)
    factor = np.abs(x, out=np.empty(x.shape) if scratch is None else scratch)
    _prox_factor(factor, t, mu, factor, knee)
    out = np.multiply(x, factor, out=out)
    return out if out.ndim else float(out)


def huber_prox_vec(v, t, mu: float, *, norm=None, out=None, scratch=None, knee=None):
    """Proximal map of t phi_mu(|.|) at 2-vectors (last axis),
    v (1 - t / max(|v|, mu + t)), each component scaled by the one
    factor; see huber_prox.  t broadcasts against |v|.  With norm given,
    |v| is read from it; scratch, shaped like |v|, takes the factor and
    may be norm itself.  out may be v itself."""
    v = np.asarray(v, dtype=np.float64)
    if norm is None:
        norm = vector_norm(v)
    factor = _prox_factor(norm, t, mu, np.empty(norm.shape) if scratch is None else scratch, knee)
    out = np.empty(v.shape) if out is None else out
    np.multiply(v[..., 1], factor, out=out[..., 1])
    np.multiply(v[..., 0], factor, out=out[..., 0])
    return out


def project_stack_sum_to_one(arr: np.ndarray, *, out=None, scratch=None) -> np.ndarray:
    """Euclidean projection of a (n, H, W) stack onto {sum_i v_i(x) = 1}.

    Subtracts (sum_i v_i - 1)/n from every layer pointwise.  out, if
    given, receives the projection and may be arr; an out of fewer
    layers receives only the projection of arr's leading len(out) layers,
    the correction still formed from all n.  scratch, if given, is a free
    (H, W) field that takes the correction.
    """
    n = arr.shape[0]
    if n == 0:
        raise ValueError("empty label stack")
    correction = np.sum(arr, axis=0, out=scratch)
    correction -= 1.0
    correction /= n
    return np.subtract(arr if out is None else arr[: len(out)], correction, out=out)
