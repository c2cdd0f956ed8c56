"""Independent oracles: brute-force and quadrature references.

These deliberately avoid the library's computational paths: region
probabilities come from adaptive quadrature of the raw densities,
extremality from an SVD over the full (unrestricted) Hermitian
parametrization intersected with the support condition, ``Tr[A M]``
from the rank-one kets of the continuous densities, and duals from
closed-form frame formulas.
"""

import numpy as np
from scipy import integrate

SIG = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def rodrigues_rotation(axis):
    """The rotation taking +z to the unit ``axis``, by Rodrigues' formula
    about ``v = np.cross(z, axis)`` with numpy's dot products; a ``|v|**2``
    below the smallest normal float is a pole, as in the library."""
    axis = np.asarray(axis, dtype=float)
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.clip(axis @ z, -1.0, 1.0))
    v = np.cross(z, axis)
    s2 = float(v @ v)
    if s2 < np.finfo(float).tiny:
        return np.eye(3) if c > 0.0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / s2)


def spin_up_vector(n):
    """Spin-up spinor along n, same gauge convention as the library."""
    x, y, z = n
    theta = np.arccos(np.clip(z, -1, 1))
    phi = np.arctan2(y, x)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def cap_probability_quadrature(rho, axis, theta0):
    """Adaptive quadrature of <n|rho|n> dn/(2 pi) over a polar cap."""
    rot = rodrigues_rotation(axis)

    def integrand(phi, theta):
        local = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        n = rot @ local
        psi = spin_up_vector(n)
        return float((psi.conj() @ rho @ psi).real) * np.sin(theta) / (2 * np.pi)

    val, err = integrate.dblquad(
        integrand, 0.0, theta0, 0.0, 2 * np.pi, epsabs=1e-12, epsrel=1e-12
    )
    assert err < 1e-10
    return val


def cap_probability_grid(rho, axis, theta0, nodes=16):
    """<n|rho|n> dn/(2 pi) over a polar cap on a product grid of its own.

    ``nodes`` Gauss-Legendre polar cosines on ``[cos theta0, 1]`` times
    ``2 nodes`` equally spaced azimuths in the cap's frame; the density
    ``(1 + n . r)/2``, with Bloch vector ``r_k = Tr[rho sigma_k]``, is
    affine in n, so the grid integrates it exactly.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    c = np.cos(theta0)
    u, wu = c + (1 - c) * (x + 1) / 2, (1 - c) / 2 * w
    phi = np.arange(2 * nodes) * (np.pi / nodes)
    s = np.sqrt(1 - u * u)
    local = np.stack(
        [np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)), np.outer(u, np.ones_like(phi))],
        axis=-1,
    )
    bloch = np.array([np.trace(rho @ sig).real for sig in SIG])
    density = (1 + local @ rodrigues_rotation(axis).T @ bloch) / 2
    return float(wu @ density.sum(axis=1)) * (np.pi / nodes) / (2 * np.pi)


def arc_probability_quadrature(rho, a, b):
    """Adaptive quadrature of <phi|rho|phi> dphi/(2 pi) over [a, b]."""
    d = rho.shape[0]

    def integrand(phi):
        ket = np.exp(1j * np.arange(d) * phi)
        return float((ket.conj() @ rho @ ket).real) / (2 * np.pi)

    val, err = integrate.quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-10
    return val


def brute_force_kernel_dim(povm, gap=1e-8):
    """Perturbation-space dimension via the full Hermitian parametrization.

    Each component is a free d x d Hermitian (d^2 real coordinates in the
    raw basis: diagonals, then unscaled real and imaginary off-diagonal
    parts); the constraints are the zero sum and the support projection
    ``Q_i = Pi_i Q_i Pi_i``, stacked and SVD'd.  No support-restricted
    parametrization is used anywhere.
    """
    d = povm.dim
    n = len(povm)

    def raw_basis(dim):
        out = []
        for i in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, i] = 1.0
            out.append(e)
        for i in range(dim):
            for j in range(i + 1, dim):
                e = np.zeros((dim, dim), dtype=complex)
                e[i, j] = e[j, i] = 1.0
                out.append(e)
                e2 = np.zeros((dim, dim), dtype=complex)
                e2[i, j] = 1j
                e2[j, i] = -1j
                out.append(e2)
        return out

    basis = raw_basis(d)
    projectors = []
    for el in povm.elements:
        w, v = np.linalg.eigh(el)
        keep = v[:, w > gap * max(1.0, w.max())]
        projectors.append(keep @ keep.conj().T)

    def flatten(m):
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    cols = []
    for slot in range(n):
        for b in basis:
            rows = [np.zeros((d, d), dtype=complex) for _ in range(n + 1)]
            rows[0] = b  # contribution to the sum constraint
            pi = projectors[slot]
            rows[1 + slot] = b - pi @ b @ pi
            cols.append(np.concatenate([flatten(r) for r in rows]))
    mat = np.column_stack(cols)
    s = np.linalg.svd(mat, compute_uv=False)
    scale = max(1.0, float(s[0]))
    rank = int(np.count_nonzero(s > gap * scale))
    return mat.shape[1] - rank


def brute_force_extremal(povm, gap=1e-8):
    return brute_force_kernel_dim(povm, gap=gap) == 0


def spin_kets(points):
    """Spin-up spinors along each point: the spin family's kets (squared norm 1)."""
    return np.array([spin_up_vector(n) for n in np.atleast_2d(points)])


def phase_kets(d, phis):
    """Phase kets ``sum_n exp(i n phi)|n>`` (squared norm d)."""
    return np.exp(1j * np.outer(np.atleast_1d(phis), np.arange(d)))


def quadratic_moment_grid(d, a, b, nodes=64):
    """``int Tr[a M] Tr[b M]`` over a continuous family's outcome measure on
    a fine grid of its own: for ``d = None`` the spin family (``|n><n|``,
    measure ``dn/2pi``) on ``nodes`` Gauss-Legendre cosines times ``2 nodes``
    azimuths, else ``phase:d`` (``|phi><phi|/d``, measure ``d dphi/2pi``)
    on the ``2 nodes``-point trapezoid.  Both integrands are polynomials of
    degree at most 30 in the outcome, which these grids integrate exactly."""
    if d is None:
        u, wu = np.polynomial.legendre.leggauss(nodes)
        az = np.arange(2 * nodes) * (np.pi / nodes)
        s = np.sqrt(1.0 - u * u)
        points = np.stack([np.outer(s, np.cos(az)), np.outer(s, np.sin(az)),
                           np.outer(u, np.ones_like(az))], axis=-1).reshape(-1, 3)
        kets, ket_norm = spin_kets(points), 1
        w = np.repeat(wu, len(az)) * (np.pi / nodes) / (2 * np.pi)
    else:
        phis = np.arange(2 * nodes) * (np.pi / nodes)
        kets, ket_norm = phase_kets(d, phis), d
        w = np.full(len(phis), d / (2 * nodes))
    return float(w @ (kets_expectation(kets, ket_norm, a) * kets_expectation(kets, ket_norm, b)))


def kets_expectation(kets, ket_norm, a):
    """``<psi|a|psi> / ket_norm`` per ket, the real part of ``Tr[a M]`` for
    ``M = |psi><psi| / ket_norm``, from the kets themselves."""
    applied = kets @ a.T  # rows a |psi>; Re <psi|a psi> in real parts
    vals = np.einsum("ni,ni->n", kets.real, applied.real)
    vals += np.einsum("ni,ni->n", kets.imag, applied.imag)
    return vals / ket_norm


def phase_sums_one_pass(c, phis):
    """Fourier sums ``sum_{k=1}^{K} c_kj e^{ik phi}`` of a (K,) or (K, m)
    ``c`` by Horner's rule in ``e^{i phi}`` over all phases at once,
    complex, of shape ``phis.shape`` or ``(m,) + phis.shape``: the bits
    that a blocked evaluation must reproduce phase by phase."""
    z = np.exp(1j * np.asarray(phis, dtype=float))
    c = c.reshape(c.shape + (1,) * z.ndim)
    acc = c[-1] * z
    for ck in c[-2::-1]:
        acc += ck
        acc *= z
    return acc


def phase_expectation_one_pass(a, phis):
    """``(Tr a + 2 Re sum_k c_k e^{ik phi}) / d``, with ``c_k`` the k-th
    superdiagonal sum of ``a``, from `phase_sums_one_pass`."""
    c = superdiagonal_traces(a)
    return (np.trace(a).real + 2.0 * phase_sums_one_pass(c, phis).real) / len(a)


def superdiagonal_traces(a):
    """``np.trace(a, offset=k)`` for ``k = 1..d-1``, one diagonal at a time."""
    return np.array([np.trace(a, offset=k) for k in range(1, len(a))], dtype=complex)


def rotate_zyz_one_pass(xs, points):
    """Images ``R_z(alpha) R_y(beta) R_z(gamma) p`` of (K, 3) points under
    (n, 3) Euler coordinates ``(alpha, cos beta, gamma)``, shape (n, K, 3):
    one factor at a time over the whole (point, draw) grid, then stacked."""
    alpha, u, gamma = np.reshape(xs, (-1, 3)).T
    ca, sa, cg, sg = np.cos(alpha), np.sin(alpha), np.cos(gamma), np.sin(gamma)
    s = np.sqrt(1.0 - u * u)
    px, py, pz = np.asarray(points, dtype=float).T[:, :, None]
    x, y = cg * px - sg * py, sg * px + cg * py
    x, z = u * x + s * pz, u * pz - s * x
    moved = np.stack([ca * x - sa * y, sa * x + ca * y, z], axis=-1)
    return np.ascontiguousarray(moved.swapaxes(0, 1))


def spin_dual_closed_form(a, points):
    """``f_A(n) = a0 + 3 a . n`` for ``A = a0 I + a . sigma``: the direction
    density has first moment ``n/3`` per axis under ``dn/2pi``."""
    a0 = float(np.trace(a).real) / 2.0
    avec = np.array([float(np.trace(a @ s).real) / 2.0 for s in SIG])
    return a0 + 3.0 * np.atleast_2d(points) @ avec


def phase_dual_closed_form(a, phis):
    """``f_A(phi) = a_00 + 2 Re sum_k a_0k e^{ik phi}`` for a Toeplitz A."""
    d = a.shape[0]
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    vals = np.full(phis.shape, float(a[0, 0].real))
    for k in range(1, d):
        vals += 2.0 * (a[0, k] * np.exp(1j * k * phis)).real
    return vals


def sic_dual_closed_form(axes, a):
    """SIC dual coefficients ``f_i = Tr[A]/2 + 3 a_i . a`` for a qubit."""
    a0 = float(np.trace(a).real) / 2.0
    avec = np.array([float(np.trace(a @ s).real) / 2.0 for s in SIG])
    return np.array([a0 + 3.0 * ax @ avec for ax in axes])


def spin_polar_cdf(rho, u):
    """CDF of the spin direction's polar cosine in the state's eigenframe:
    the density ``(1 + r u)/2`` with r = 2*(top eigenvalue) - 1."""
    r = 2.0 * float(np.linalg.eigvalsh(rho)[-1]) - 1.0
    return (u + 1.0) / 2.0 + r * (u * u - 1.0) / 4.0


def phase_cdf(rho, phi):
    """Closed-form CDF of the phase outcome density ``<phi|rho|phi>/2pi``, one
    Fourier term at a time."""
    d = rho.shape[0]
    phi = np.asarray(phi, dtype=float)
    total = phi.copy()
    for k in range(1, d):
        ck = np.trace(rho, offset=k)
        total += (2.0 / k) * (ck * (np.exp(1j * k * phi) - 1.0)).imag
    return total / (2.0 * np.pi)


def bayes_gain_quadrature(kind, points, elements, fiducial=None, nodes=16):
    """Bayes gain of a finite POVM, averaged over a product-grid prior rule.

    ``kind`` is ``"sphere"``: prior states ``(I + m . sigma)/2`` uniform on
    the sphere, fidelity gain ``(1 + m . n)/2``, on a grid of ``nodes``
    Gauss-Legendre cosines times ``2 nodes`` equally spaced azimuths; or
    ``"circle"``: ``rho_t[a, b] = exp(i (a - b) t) rho0[a, b]`` for t
    uniform, cosine gain ``(1 + cos(t - phi))/2``, on ``8 nodes`` equally
    spaced t.  Both integrands are trigonometric polynomials of low degree,
    which these rules integrate exactly.
    """
    elements = np.asarray(elements)
    if kind == "sphere":
        u, wu = np.polynomial.legendre.leggauss(nodes)
        az = np.arange(2 * nodes) * (np.pi / nodes)
        s = np.sqrt(1.0 - u * u)
        m = np.stack([np.outer(s, np.cos(az)), np.outer(s, np.sin(az)),
                      np.outer(u, np.ones_like(az))], axis=-1).reshape(-1, 3)
        w = np.repeat(wu / 2.0, len(az)) / len(az)
        rho = (np.eye(2) + np.einsum("ti,iab->tab", m, np.array(SIG))) / 2.0
        gain = (1.0 + m @ np.asarray(points, dtype=float).T) / 2.0
    else:
        t = np.arange(8 * nodes) * (2.0 * np.pi / (8 * nodes))
        w = np.full(len(t), 1.0 / len(t))
        k = np.subtract.outer(np.arange(len(fiducial)), np.arange(len(fiducial)))
        rho = np.exp(1j * k[None] * t[:, None, None]) * fiducial
        gain = (1.0 + np.cos(np.subtract.outer(t, np.asarray(points, dtype=float)))) / 2.0
    probs = np.einsum("tab,kba->tk", rho, elements).real
    return float(np.sum(w[:, None] * gain * probs))


def bisection_max_step(elements, components, sign, tol=1e-12, iterations=200):
    """Largest t with every ``P_i + sign * t * Q_i`` positive semidefinite,
    by doubling and then bisection on the smallest eigenvalue of each sum.

    A sum counts as PSD while its smallest eigenvalue is at least ``-tol``,
    so that eigenvalues on a shared kernel (zero up to rounding) pass.
    """

    def psd(t):
        return all(
            np.linalg.eigvalsh(p + sign * t * q)[0] >= -tol
            for p, q in zip(elements, components)
        )

    lo, hi = 0.0, 1.0
    while psd(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if psd(mid):
            lo = mid
        else:
            hi = mid
    return lo


def check_perturbation(elements, components, tol=1e-8):
    """Assert that ``components`` is a unit perturbation of the POVM
    ``elements``, one element at a time with numpy alone: one Hermitian
    component per element, each equal to its compression ``Pi Q Pi`` onto
    its element's support (the eigenvectors of eigenvalue above
    ``1e-8 max(1, lambda_max)``), summing to zero, of unit summed squared
    Frobenius norm."""
    assert len(components) == len(elements)
    total, squares = 0.0, 0.0
    for el, q in zip(elements, components):
        q = np.array(q)
        scale = 1.0 + float(np.linalg.norm(q))
        assert np.linalg.norm(q - q.conj().T) <= tol * scale, "component is not Hermitian"
        w, v = np.linalg.eigh(np.array(el))
        keep = v[:, w > 1e-8 * max(1.0, w.max())]
        pi = keep @ keep.conj().T
        assert np.linalg.norm(q - pi @ q @ pi) <= tol * scale, "component leaves the support"
        total = total + q
        squares += float(np.linalg.norm(q)) ** 2
    assert np.linalg.norm(total) <= 1e-9, "components do not sum to zero"
    assert abs(np.sqrt(squares) - 1.0) <= tol, "perturbation is not normalized"


def validate_per_element(povm, tol_psd=1e-9, tol_complete=1e-9, tol_herm=1e-10):
    """The POVM axioms checked one element at a time with numpy alone:
    ``(hermiticity defects, PSD margins, completeness defect, duplicate
    points, passed)``.  Defects and margins are scaled by ``1 + ||.||_F``
    of the element (margins: of its Hermitian part), the completeness
    defect is ``||sum - I||_F``, and an entry is a duplicate when an
    earlier entry has the same point."""
    herm, margins = [], []
    for el in povm.elements:
        el = np.array(el)
        herm.append(float(np.linalg.norm(el - el.conj().T)) / (1.0 + float(np.linalg.norm(el))))
        sym = 0.5 * (el + el.conj().T)
        lowest = np.linalg.eigh(sym)[0][0]
        margins.append(float(lowest) / (1.0 + float(np.linalg.norm(sym))))
    defect = float(np.linalg.norm(sum(np.array(el) for el in povm.elements) - np.eye(povm.dim)))
    points = [np.atleast_1d(pt) for pt in povm.points]
    dupes = []
    if not povm.allow_duplicates:
        dupes = [j for j in range(len(points))
                 if any(np.array_equal(points[i], points[j]) for i in range(j))]
    passed = (
        all(m >= -tol_psd for m in margins)
        and defect <= tol_complete
        and all(h <= tol_herm for h in herm)
        and not dupes
    )
    return herm, margins, defect, dupes, passed
