"""Shared fixtures and independent oracles for the test suite."""

import numpy as np

from adaptreg.grid import gaussian_kernel, gradient
from adaptreg.metrics import match_labels
from adaptreg.segment import DEGENERATE_REGION_WEIGHT, update_v_all


def assert_same_bits(out, ref):
    """out equals ref bitwise, sign of zero included; NaN must land on the
    same entries, but its payload may differ."""
    assert type(out) is type(ref)
    out = np.asarray(out)
    ref = np.asarray(ref)
    assert out.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(out), nan)
    assert np.array_equal(out[~nan], ref[~nan])
    assert np.array_equal(np.signbit(out[~nan]), np.signbit(ref[~nan]))


def moreau_envelope_bruteforce(x: float, mu: float, grid_step: float):
    """Brute-force minimization of |r| + (x - r)^2/(2 mu) over a dense r grid.

    Returns (value, argmin).  Serves as the oracle that the envelope
    equals huber(x, mu) and the minimizer equals shrink(x, mu).
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    hi = abs(x) + mu
    n = int(np.floor(2.0 * hi / grid_step)) + 1
    r = -hi + grid_step * np.arange(n + 1, dtype=np.float64)
    values = np.abs(r) + (x - r) ** 2 / (2.0 * mu)
    i = int(np.argmin(values))
    return float(values[i]), float(r[i])


def make_scene(n):
    """Piecewise-constant test card: two bar gratings on the left half,
    two flat patches on the right."""
    clean = np.full((n, n), 0.5)
    half = n // 2
    colbar = (np.arange(half) // 4) % 2
    rowbar = (np.arange(n) // 4) % 2
    r0, r1 = n // 16, half - n // 32
    r2, r3 = half + n // 32, n - n // 16
    clean[r0:r1, :half] = np.where(colbar[None, :], 0.65, 0.35)
    clean[r2:r3, :half] = np.where(rowbar[r2:r3, None], 0.65, 0.35)
    clean[:half, half:] = 0.30
    clean[half:, half:] = 0.70
    return clean


def matched_accuracy(pred, gt):
    """Pixel accuracy after greedy label matching."""
    m = match_labels(pred, gt)
    correct = 0
    for p, g in m.items():
        correct += int(np.count_nonzero((pred == p) & (gt == g)))
    return correct / gt.size


def sector_precisions(labels, gt, disc_label=4):
    """Per-sector precision on the junction fixture, disc masked out."""
    mask = gt != disc_label
    m = match_labels(np.where(mask, labels, -1), np.where(mask, gt, -1))
    precs = []
    for s in range(disc_label):
        matched = [k for k, v in m.items() if v == s]
        if not matched:
            return [0.0]
        sel = (labels == matched[0]) & mask
        precs.append(
            np.count_nonzero(sel & (gt == s)) / max(np.count_nonzero(sel), 1)
        )
    return precs


def assemble_screened_matrix(xi):
    """Dense (1 - xi * laplacian) with replicate boundary, row-scaled the
    same way as the sweep solver (xi evaluated at the row's pixel)."""
    h, wd = xi.shape
    n = h * wd
    mat = np.zeros((n, n))
    cnt = np.full((h, wd), 4.0)
    cnt[0, :] -= 1
    cnt[-1, :] -= 1
    cnt[:, 0] -= 1
    cnt[:, -1] -= 1
    for y in range(h):
        for x in range(wd):
            p = y * wd + x
            mat[p, p] = 1.0 + xi[y, x] * cnt[y, x]
            for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                yy, xx = y + dy, x + dx
                if 0 <= yy < h and 0 <= xx < wd:
                    mat[p, yy * wd + xx] -= xi[y, x]
    return mat


def screened_sweep_reference(rhs, xi, v0, sweeps):
    """Full-grid red-black Gauss-Seidel for (1 - xi * laplacian) v = rhs
    on one (H, W) grid: each half sweep computes the update everywhere
    from zero-filled neighbor copies and keeps its color through a
    parity mask.  Same update formula and pairwise neighbor sum as the
    package solver, so the two agree bitwise."""
    v = np.array(v0, dtype=np.float64, copy=True)
    h, w = v.shape
    cnt = np.full((h, w), 4.0)
    cnt[0, :] -= 1
    cnt[-1, :] -= 1
    cnt[:, 0] -= 1
    cnt[:, -1] -= 1
    parity = (np.add.outer(np.arange(h), np.arange(w)) % 2) == 0
    cr = cnt * rhs
    denom = 1.0 + xi * cnt
    for _ in range(sweeps):
        for mask in (parity, ~parity):
            left = np.zeros_like(v)
            left[:, 1:] = v[:, :-1]
            right = np.zeros_like(v)
            right[:, :-1] = v[:, 1:]
            up = np.zeros_like(v)
            up[1:, :] = v[:-1, :]
            down = np.zeros_like(v)
            down[:-1, :] = v[1:, :]
            t = (left + right) + (up + down)
            vnew = rhs + (t - cr) * (xi / denom)
            v[mask] = vnew[mask]
    return v


# Frozen textbook formulas of the pointwise kernels, written with one
# full-size temporary per operation and np.sum over the component axis.
# The package kernels must equal them bitwise.


def huber_reference(x, mu):
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    out = np.where(ax <= mu, x * x / (2.0 * mu), ax - mu / 2.0)
    return out if out.ndim else float(out)


def huber_vec_reference(v, mu):
    v = np.asarray(v, dtype=np.float64)
    return huber_reference(np.sqrt(np.sum(v * v, axis=-1)), mu)


def envelope_reference(x, r, mu):
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    out = np.abs(r) + (x - r) ** 2 / (2.0 * mu)
    return out if out.ndim else float(out)


def shrink_reference(x, t):
    x = np.asarray(x, dtype=np.float64)
    out = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    return out if out.ndim else float(out)


def shrink_vec_reference(v, t):
    v = np.asarray(v, dtype=np.float64)
    norm = np.sqrt(np.sum(v * v, axis=-1))
    factor = np.maximum(0.0, 1.0 - t / np.where(norm > 0.0, norm, 1.0))
    return v * factor[..., None]


def convolve_axis_reference(u, k, radius, axis):
    padding = [(0, 0)] * u.ndim
    padding[axis] = (radius, radius)
    padded = np.pad(u, padding, mode="symmetric")
    n = u.shape[axis]
    acc = np.zeros_like(u)
    for t, weight in enumerate(k):
        if axis == -1:
            acc += weight * padded[..., t : t + n]
        else:
            acc += weight * padded[..., t : t + n, :]
    return acc


def convolve_gaussian_reference(u, sigma):
    if sigma == 0:
        return u.copy()
    k = gaussian_kernel(sigma)
    radius = (len(k) - 1) // 2
    return convolve_axis_reference(convolve_axis_reference(u, k, radius, -1), k, radius, -2)


# Frozen stencils and exact solve, written slice by slice over the
# (H, W) axes with a zeroed field per pass.  The package versions run
# flat over (..., H*W) and must equal these bitwise, sign of zero
# included.


def gradient_reference(u):
    g = np.zeros(u.shape + (2,), dtype=np.float64)
    g[..., :, :-1, 0] = u[..., :, 1:] - u[..., :, :-1]
    g[..., :-1, :, 1] = u[..., 1:, :] - u[..., :-1, :]
    return g


def divergence_reference(p):
    h, w = p.shape[-3:-1]
    px = p[..., 0]
    py = p[..., 1]
    d = np.zeros(p.shape[:-1], dtype=np.float64)
    if w >= 2:
        d[..., :, 0] += px[..., :, 0]
        d[..., :, 1:-1] += px[..., :, 1:-1] - px[..., :, :-2]
        d[..., :, -1] -= px[..., :, -2]
    if h >= 2:
        d[..., 0, :] += py[..., 0, :]
        d[..., 1:-1, :] += py[..., 1:-1, :] - py[..., :-2, :]
        d[..., -1, :] -= py[..., -2, :]
    return d


def laplacian_reference(u):
    h, w = u.shape[-2:]
    d = np.zeros(u.shape, dtype=np.float64)
    if w >= 2:
        px = u[..., :, 1:] - u[..., :, :-1]
        d[..., :, :-1] += px
        d[..., :, 1:] -= px
    if h >= 2:
        py = u[..., 1:, :] - u[..., :-1, :]
        d[..., 0, :] += py[..., 0, :]
        d[..., 1:-1, :] += py[..., 1:, :] - py[..., :-1, :]
        d[..., -1, :] -= py[..., -1, :]
    return d


def _twiddle_reference(n):
    return np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))


def _even_odd_reference(x, axis):
    out = np.empty(x.shape)
    src, dst = np.moveaxis(x, axis, -1), np.moveaxis(out, axis, -1)
    m = (src.shape[-1] + 1) // 2
    dst[..., :m] = src[..., ::2]
    dst[..., m:] = src[..., 1::2][..., ::-1]
    return out


def _natural_reference(v, axis, out):
    src, dst = np.moveaxis(v, axis, -1), np.moveaxis(out, axis, -1)
    m = (src.shape[-1] + 1) // 2
    dst[..., ::2] = src[..., :m]
    dst[..., 1::2][..., ::-1] = src[..., m:]
    return out


def _dct_rows_reference(x):
    n = x.shape[-1]
    m = (n + 1) // 2
    z = np.fft.rfft(_even_odd_reference(x, -1), axis=-1)
    z *= _twiddle_reference(n)
    out = np.empty(x.shape)
    out[..., : n // 2 + 1] = z.real
    np.multiply(z.imag[..., 1:m], -1.0, out=out[..., n - 1 : n - m : -1])
    return out


def _idct_rows_reference(c):
    n = c.shape[-1]
    half = n // 2 + 1
    z = np.empty(c.shape[:-1] + (half,), dtype=np.complex128)
    z.real = c[..., :half]
    z.imag[..., 0] = 0.0
    np.multiply(c[..., n - 1 : n - half : -1], -1.0, out=z.imag[..., 1:])
    z *= _twiddle_reference(n).conj()
    return _natural_reference(np.fft.irfft(z, n=n, axis=-1), -1, np.empty(c.shape))


def exact_screened_solve_reference(rhs, xi):
    """The DCT solve with every even-odd reorder as its own copy pass."""
    h, w = rhs.shape[-2:]
    kappa = [4.0 * np.sin(0.5 * np.pi / n * np.arange(n)) ** 2 for n in (h, w)]
    gain = np.add.outer(*kappa)
    gain *= xi
    gain += 1.0
    np.divide(xi, gain, out=gain)
    half = h // 2 + 1
    g_imag = np.zeros((half, w))
    g_imag[1:] = gain[h - 1 : h - half : -1]
    twiddle = _twiddle_reference(h)[:, None]
    rows = _dct_rows_reference(laplacian_reference(rhs))
    z = np.fft.rfft(_even_odd_reference(rows, -2), axis=-2)
    z *= twiddle
    z.real *= gain[:half]
    z.imag *= g_imag
    z *= twiddle.conj()
    _natural_reference(np.fft.irfft(z, n=h, axis=-2), -2, rows)
    out = _idct_rows_reference(rows)
    out += rhs
    return out


def flow_update_u_reference(state, params):
    """The per-pixel flow u-solve as written on interleaved (H, W, 2)
    fields, with (H, W) factors broadcast over a trailing axis."""
    mu_theta = params.mu * params.theta
    a = state.A
    base = state.v - state.w
    coeff = state.lam * (state.ft - state.r)
    b = mu_theta * base + coeff[..., None] * a
    ab = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    asq = a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]
    scale = state.lam * ab / (mu_theta * (mu_theta + state.lam * asq))
    return base + ((coeff / mu_theta) - scale)[..., None] * a


def weight_fields_reference(rho, params):
    """Fidelity weight lambda from the frozen smoothing and shrink
    formulas; a constant weight is a float."""
    rho = np.asarray(rho, dtype=np.float64)
    if params.constant_lambda is not None:
        return float(params.constant_lambda)
    nu = np.exp(-convolve_gaussian_reference(rho, params.smoothing_sigma) / params.beta)
    return shrink_reference(nu, params.alpha)


def _label_misfit(s, i, mu):
    return envelope_reference(s.f - s.c[i], s.r[i], mu)


def exclusivity_sum_reference(u, i):
    """Sum of the memberships of every label but i, in the grouping of the
    u-step: (u_0 + ... + u_{i-1}) in ascending order from +0.0, plus
    u_{i+1} + ... + u_{n-1} summed from the last label down.  np.sum over
    the label axis adds one label at a time, and reversing the labels
    gives the descending order."""
    return np.sum(u[:i], axis=0) + np.sum(u[i + 1 :][::-1], axis=0)


def segment_iterate_reference(s, params):
    """One segmentation iteration on the LabelState s, label by label.

    For label i in ascending order: weights, region value, r, z and u,
    each from that label's own (H, W) fields; then the shared v-step and
    the dual step.  This is the step order the stacked iteration must
    reproduce bitwise."""
    sp = params.solver
    s.iteration += 1
    labels = np.arange(s.n_labels)
    for i in labels:
        d = _label_misfit(s, i, sp.mu)
        lam = weight_fields_reference(d * s.u[i], sp.adaptive)
        if np.ndim(lam):
            s.lam[i] = lam
        else:
            s.lam = lam  # a constant weight stays a float, so xi is a scalar
        weights = lam * s.u[i]
        den = float(np.sum(weights))
        if den <= DEGENERATE_REGION_WEIGHT:
            s.degenerate_events.append((s.iteration, int(i)))
        else:
            s.c[i] = float(np.sum(weights * (s.f - s.r[i]))) / den
        s.r[i] = shrink_reference(s.f - s.c[i], sp.mu)
        s.z[i] = shrink_vec_reference(gradient(s.v[i]), sp.eta)
        d = _label_misfit(s, i, sp.mu)
        others = exclusivity_sum_reference(s.u, i)
        s.u[i] = np.maximum(
            0.0,
            s.v[i] - s.w[i] - (lam / sp.theta) * d - (params.tau_excl / sp.theta) * others,
        )
    update_v_all(s, params)
    s.w = s.w + (s.u - s.v)


def segment_energy_reference(s, params):
    """Segmentation energy from per-label terms: the data terms of all
    labels, stacked and summed, plus the stacked regularizer terms."""
    sp = params.solver
    lam = np.broadcast_to(s.lam, s.u.shape)
    data = np.stack([lam[i] * _label_misfit(s, i, sp.mu) * s.u[i] for i in range(s.n_labels)])
    reg = np.stack([
        (1.0 - lam[i]) * huber_vec_reference(gradient(s.v[i]), sp.eta) for i in range(s.n_labels)
    ])
    total = float(np.sum(data) + np.sum(reg))
    overlap = (np.sum(s.u, axis=0) ** 2 - np.sum(s.u**2, axis=0)) / 2.0
    return total + params.tau_excl * float(np.sum(overlap))


def denoise_iterate_reference(s, params):
    """One denoising iteration on the fields of s (f, u, v, w, r, z, lam),
    in the documented step order, from the textbook formulas with one
    fresh temporary per operation: no buffer is reused, no intermediate
    shared.  z comes out interleaved; a constant weight stays a float."""
    mu, eta, theta = params.mu, params.eta, params.theta
    s.z = shrink_vec_reference(gradient_reference(s.v), eta)
    q = s.f - s.u
    s.lam = weight_fields_reference(envelope_reference(q, s.r, mu), params.adaptive)
    s.r = shrink_reference(q, mu)
    base = s.v - s.w
    s.u = base + s.lam * ((s.f - s.r) - base) / (s.lam + mu * theta)
    xi = (1.0 - s.lam) / (eta * theta)
    rhs = s.u + s.w - xi * divergence_reference(s.z)
    if np.ndim(xi):
        s.v = screened_sweep_reference(rhs, xi, s.v, params.gs_sweeps)
    else:
        s.v = exact_screened_solve_reference(rhs, xi)
    s.w = s.w + (s.u - s.v)


def denoise_energy_reference(s, params):
    """Denoising energy of the fields of s, data term first."""
    data = s.lam * huber_reference(s.f - s.u, params.mu)
    reg = (1.0 - s.lam) * huber_vec_reference(gradient_reference(s.v), params.eta)
    return float(np.sum(data) + np.sum(reg))


def reference_color_wheel():
    """Independent 55-entry flow color wheel, built segment by segment."""
    segments = ((15, "RY"), (6, "YG"), (4, "GC"), (11, "CB"), (13, "BM"), (6, "MR"))
    rows = []
    for count, name in segments:
        for i in range(count):
            t = np.floor(255.0 * i / count)
            rows.append({
                "RY": (255, t, 0),
                "YG": (255 - t, 255, 0),
                "GC": (0, 255, t),
                "CB": (0, 255 - t, 255),
                "BM": (t, 0, 255),
                "MR": (255, 0, 255 - t),
            }[name])
    return np.array(rows, dtype=np.float64)


def ssim_direct(a, b):
    """Windowed SSIM computed patch by patch, no separable shortcuts."""
    k = gaussian_kernel(1.5)
    half = k.size // 2
    c1, c2 = 0.01**2, 0.03**2
    w2 = np.outer(k, k)
    vals = []
    for y in range(half, a.shape[0] - half):
        for x in range(half, a.shape[1] - half):
            pa = a[y - half : y + half + 1, x - half : x + half + 1]
            pb = b[y - half : y + half + 1, x - half : x + half + 1]
            m1 = np.sum(w2 * pa)
            m2 = np.sum(w2 * pb)
            s11 = np.sum(w2 * pa * pa) - m1 * m1
            s22 = np.sum(w2 * pb * pb) - m2 * m2
            s12 = np.sum(w2 * pa * pb) - m1 * m2
            vals.append(
                ((2 * m1 * m2 + c1) * (2 * s12 + c2))
                / ((m1 * m1 + m2 * m2 + c1) * (s11 + s22 + c2))
            )
    return float(np.mean(vals))
