"""Neumann-Laplacian cosine eigenbasis on intervals and rectangles.

The basis is closed-form: on [0, L] the eigenfunctions of -d^2/dx^2 with
zero Neumann data are w_0 = 1/sqrt(L) and w_m(x) = sqrt(2/L) cos(m pi x / L)
with eigenvalue (m pi / L)^2.  Rectangles use the tensor product, with
eigenvalues adding.  All quadrature is the uniform midpoint rule, which
integrates products of resolved cosine modes exactly, so the transforms
below are projections rather than approximations.

Coefficient vectors and grid values may carry leading member axes:
data of shape (..., n_modes) and values of shape (..., *npoints) hold
one field per member, and every transform, product and reduction here
acts on each member separately.  Products stay stacked (one matrix
product per member), so a member of a batch is bit-for-bit the same
field as that member computed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class SpectralError(Exception):
    """Base error for the spectral layer."""


class InvalidDomainError(SpectralError):
    pass


class BasisMismatchError(SpectralError):
    pass


class ZeroMeanViolationError(SpectralError):
    pass


MEAN_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class Domain:
    """Interval [0, L] or axis-aligned rectangle [0, Lx] x [0, Ly]."""

    kind: str  # "interval" | "rectangle"
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise InvalidDomainError(f"unknown domain kind {self.kind!r}")
        expected = 1 if self.kind == "interval" else 2
        if len(self.lengths) != expected:
            raise InvalidDomainError(
                f"{self.kind} needs {expected} length(s), got {len(self.lengths)}"
            )
        if not all(0 < L < math.inf for L in self.lengths):
            raise InvalidDomainError(
                f"lengths must be positive and finite, got {self.lengths}")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def volume(self) -> float:
        return float(math.prod(self.lengths))

    @property
    def boundary_measure(self) -> float:
        if self.dim == 1:
            return 2.0
        Lx, Ly = self.lengths
        return 2.0 * (Lx + Ly)


def _eigenvalues_1d(L: float, k: int) -> np.ndarray:
    m = np.arange(k)
    return (m * np.pi / L) ** 2


def _synthesis_1d(L: float, k: int, x: np.ndarray) -> np.ndarray:
    """W[i, m] = w_m(x_i)."""
    m = np.arange(k)
    W = np.sqrt(2.0 / L) * np.cos(np.outer(x, m) * np.pi / L)
    W[:, 0] = 1.0 / np.sqrt(L)
    return W


def _derivative_1d(L: float, k: int, x: np.ndarray) -> np.ndarray:
    """DW[i, m] = w_m'(x_i)."""
    m = np.arange(k)
    DW = -np.sqrt(2.0 / L) * (m * np.pi / L) * np.sin(np.outer(x, m) * np.pi / L)
    DW[:, 0] = 0.0
    return DW


def _trace_1d(L: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis values at the endpoints 0 and L."""
    m = np.arange(k)
    left = np.full(k, np.sqrt(2.0 / L))
    left[0] = 1.0 / np.sqrt(L)
    right = left * np.where(m % 2 == 0, 1.0, -1.0)
    right[0] = 1.0 / np.sqrt(L)
    return left, right


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Tensor cosine basis; coefficient index 0 is always the constant mode."""

    domain: Domain
    modes: tuple[int, ...]
    eigenvalues_1d: tuple[np.ndarray, ...] = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)  # flat, C-order over mode tuple
    # per-dim basis values at the endpoints 0 and L
    traces_1d: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    @property
    def n_modes(self) -> int:
        return math.prod(self.modes)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def default_grid(self) -> "QuadratureGrid":
        """The shared dealiased grid, built on first use."""
        return self.quadrature_grid()

    def quadrature_grid(self, oversample: float = 2.0) -> "QuadratureGrid":
        """Midpoint grid with at least ceil(3k/2)+1 points per dimension.

        The default 2x grid also integrates quartic products (needed for
        the double-well potential) exactly.
        """
        npoints = tuple(
            max(int(np.ceil(1.5 * k)) + 1, int(np.ceil(oversample * k)))
            for k in self.modes
        )
        return self.grid_with_points(npoints)

    def grid_with_points(self, npoints: tuple[int, ...]) -> "QuadratureGrid":
        minimum = tuple(int(np.ceil(1.5 * k)) + 1 for k in self.modes)
        if any(n < m for n, m in zip(npoints, minimum)):
            raise BasisMismatchError(
                f"grid {npoints} below dealiasing minimum {minimum}"
            )
        nodes, weights, synth, deriv = [], [], [], []
        for L, k, n in zip(self.domain.lengths, self.modes, npoints):
            x = (np.arange(n) + 0.5) * (L / n)
            nodes.append(x)
            weights.append(np.full(n, L / n))
            synth.append(_synthesis_1d(L, k, x))
            deriv.append(_derivative_1d(L, k, x))
        return QuadratureGrid(
            basis=self,
            npoints=tuple(npoints),
            nodes=tuple(nodes),
            weights=tuple(weights),
            W=weights[0] if self.dim == 1 else np.outer(*weights),
            synth=tuple(synth),
            deriv=tuple(deriv),
        )


def default_grid(basis: SpectralBasis) -> "QuadratureGrid":
    """Shared dealiased grid for a basis, kept for the basis's life."""
    return basis.default_grid


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    basis: SpectralBasis
    npoints: tuple[int, ...]
    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    W: np.ndarray = field(repr=False)  # tensor product of the weights
    synth: tuple[np.ndarray, ...]  # per-dim synthesis matrices, (n, k)
    deriv: tuple[np.ndarray, ...]  # per-dim derivative matrices, (n, k)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def weight_array(self) -> np.ndarray:
        return self.W

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        if self.dim == 1:
            return (self.nodes[0],)
        return np.meshgrid(self.nodes[0], self.nodes[1], indexing="ij")

    def integrate(self, values: np.ndarray) -> float:
        """Integral of one member's grid values."""
        if np.shape(values) != self.npoints:
            raise BasisMismatchError(
                f"integrate takes one member's values of shape "
                f"{self.npoints}, got {np.shape(values)}")
        return float(np.sum(self.W * values))

    def integrate_members(self, values: np.ndarray) -> np.ndarray:
        """Per-member integrals of values of shape (..., *npoints)."""
        weighted = self.W * values
        return np.sum(weighted.reshape(weighted.shape[:-self.dim] + (-1,)),
                      axis=-1)


@dataclass(eq=False)
class FieldCoeffs:
    """A scalar field as coefficients in a SpectralBasis, C-order flat.

    data has shape (..., n_modes): one coefficient vector per member.
    """

    basis: SpectralBasis
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape[-1:] != (self.basis.n_modes,):
            raise BasisMismatchError(
                f"coefficient vector of length {self.data.shape} does not match "
                f"basis with {self.basis.n_modes} modes"
            )
        if not np.isfinite(self.data).all():
            raise SpectralError("non-finite coefficients")

    def copy(self) -> "FieldCoeffs":
        return FieldCoeffs(self.basis, self.data.copy())

    def mean(self) -> float:
        return float(self.data[0]) / np.sqrt(self.basis.domain.volume)

    def tensor(self) -> np.ndarray:
        return self.data.reshape(self.data.shape[:-1] + self.basis.modes)


@dataclass(eq=False)
class GridField:
    """Nodal values of shape (..., *npoints): one field per member."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        npoints = self.grid.npoints
        if self.values.shape[-len(npoints):] != npoints:
            raise BasisMismatchError(
                f"grid values shape {self.values.shape} does not match grid "
                f"{self.grid.npoints}"
            )


def _check_same_basis(a: FieldCoeffs, b: FieldCoeffs):
    if a.basis is not b.basis:
        raise BasisMismatchError("fields live on different bases")


def _single_member(c: FieldCoeffs, consumer: str):
    """Refuse a batch where consumer handles one field only."""
    if c.data.ndim != 1:
        raise BasisMismatchError(
            f"{consumer} takes a single field, got members of shape "
            f"{c.data.shape[:-1]}")


def _per_member(value, like: np.ndarray):
    """value, shared or one entry per member, broadcastable against like.

    A per-member array gets a unit axis for each trailing field axis of
    like, so it scales member by member; a scalar is returned as is.
    """
    if isinstance(value, float):  # numpy's float64 included
        return value
    value = np.asarray(value)
    return value.reshape(value.shape + (1,) * (np.ndim(like) - value.ndim))


def _any_member(flags) -> bool:
    """Whether flags, one bool or one per member, has any set."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else bool(flags)


def _along_first_axis(M: np.ndarray, x: np.ndarray, dim: int) -> np.ndarray:
    """M applied along the first grid or mode axis of each member of x.

    Stacked, so each member is multiplied exactly as it would be alone;
    in 1D a member is a column vector.
    """
    if dim == 1:
        return np.matmul(M, x[..., None])[..., 0]
    return M @ x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-member dot product along the last axis; each member's is the
    dot product a @ b of its two vectors."""
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def build_basis(domain: Domain, modes_per_dim) -> SpectralBasis:
    """Closed-form Neumann eigenbasis; modes_per_dim is an int or per-dim tuple."""
    if isinstance(modes_per_dim, int):
        modes = (modes_per_dim,) * domain.dim
    else:
        modes = tuple(int(k) for k in modes_per_dim)
    if len(modes) != domain.dim or any(k < 1 for k in modes):
        raise InvalidDomainError(f"invalid mode counts {modes} for {domain.kind}")
    eigs_1d = tuple(
        _eigenvalues_1d(L, k) for L, k in zip(domain.lengths, modes)
    )
    if domain.dim == 1:
        flat = eigs_1d[0].copy()
    else:
        flat = (eigs_1d[0][:, None] + eigs_1d[1][None, :]).ravel()
    return SpectralBasis(
        domain=domain, modes=modes, eigenvalues_1d=eigs_1d, eigenvalues=flat,
        traces_1d=tuple(_trace_1d(L, k) for L, k in zip(domain.lengths, modes)),
    )


def to_grid(c: FieldCoeffs, g: QuadratureGrid) -> GridField:
    """Synthesis: evaluate the cosine series at the grid nodes."""
    if g.basis is not c.basis:
        raise BasisMismatchError("grid was built for a different basis")
    if c.basis.dim == 1:
        vals = _along_first_axis(g.synth[0], c.data, 1)
    else:
        vals = g.synth[0] @ c.tensor() @ g.synth[1].T
    return GridField(g, vals)


def weak_form(source: GridField | None,
              flux: tuple[GridField, ...] = ()) -> FieldCoeffs:
    """Galerkin projection: j-th coefficient is int s w_j - int F . grad(w_j).

    The one analysis kernel: an equation's source and flux are tested
    against every w_j in a single pass over the grid.  With the
    zero-normal-flux basis the flux part is the weak divergence, the
    integration-by-parts partner of gradient_on_grid.
    """
    g = source.grid if source is not None else flux[0].grid
    if flux and len(flux) != g.dim:
        raise BasisMismatchError(
            f"{len(flux)} components for a {g.dim}-dimensional grid"
        )
    for comp in flux:
        if comp.grid is not g:
            raise BasisMismatchError("vector components on mismatched grids")
    S, D, W, dim = g.synth, g.deriv, g.W, g.dim
    # source and x-flux are tested in x together, so on a rectangle they
    # share one y-transform
    rows = (_along_first_axis(S[0].T, W * source.values, dim)
            if source is not None else None)
    if flux:
        fx = _along_first_axis(D[0].T, W * flux[0].values, dim)
        rows = -fx if rows is None else rows - fx
    if dim == 1:
        return FieldCoeffs(g.basis, rows)
    data = rows @ S[1]
    if flux:
        data -= S[0].T @ (W * flux[1].values) @ D[1]
    return FieldCoeffs(g.basis, data.reshape(data.shape[:-2] + (-1,)))


def to_coeffs(f: GridField) -> FieldCoeffs:
    """Analysis: L2 projection of nodal data onto the basis via quadrature."""
    return weak_form(f)


def gradient_on_grid(c: FieldCoeffs, g: QuadratureGrid | None = None) -> tuple[GridField, ...]:
    """Exact derivative of the cosine series, evaluated at the nodes."""
    if g is None:
        g = default_grid(c.basis)
    if g.basis is not c.basis:
        raise BasisMismatchError("grid was built for a different basis")
    if c.basis.dim == 1:
        return (GridField(g, _along_first_axis(g.deriv[0], c.data, 1)),)
    C = c.tensor()
    gx = g.deriv[0] @ C @ g.synth[1].T
    gy = g.synth[0] @ C @ g.deriv[1].T
    return (GridField(g, gx), GridField(g, gy))


def divergence_to_coeffs(components: tuple[GridField, ...]) -> FieldCoeffs:
    """Weak divergence: j-th coefficient is -int g . grad(w_j)."""
    return weak_form(None, components)


def inverse_neumann_laplacian(c: FieldCoeffs) -> FieldCoeffs:
    """Diagonal inverse of -Laplacian on the mean-zero subspace."""
    size = np.abs(c.data)
    violated = size[..., 0] > MEAN_ZERO_TOL * size.max(axis=-1, initial=1.0)
    if _any_member(violated):
        raise ZeroMeanViolationError(
            f"constant-mode coefficient {c.data[..., 0][violated].flat[0]:.3e}"
            " violates the mean-zero precondition"
        )
    lam = c.basis.eigenvalues
    out = np.divide(c.data, lam, out=np.zeros_like(c.data), where=lam > 0)
    return FieldCoeffs(c.basis, out)


def boundary_mass_matrix(basis: SpectralBasis) -> np.ndarray:
    """M[j, i] = int_{boundary} w_i w_j, assembled in closed form.

    Dense n_modes x n_modes reference for boundary_mass_apply; the
    solver never forms it.
    """
    if basis.dim == 1:
        (left, right), = basis.traces_1d
        return np.outer(left, left) + np.outer(right, right)
    (lx, rx), (ly, ry) = basis.traces_1d
    kx, ky = basis.modes
    Bx = np.outer(lx, lx) + np.outer(rx, rx)  # traces at x = 0 and x = Lx
    By = np.outer(ly, ly) + np.outer(ry, ry)
    # Edge x = const contributes trace_x * delta_{n n'}; likewise for y.
    M = np.kron(Bx, np.eye(ky)) + np.kron(np.eye(kx), By)
    return M


def boundary_mass_apply(basis: SpectralBasis, c: np.ndarray) -> np.ndarray:
    """M @ c for the boundary mass matrix M, without forming M.

    Each 1D factor B = left left^T + right right^T has rank 2, and on a
    rectangle M = kron(Bx, I) + kron(I, By), so with G = c.reshape(kx, ky)
    the product is Bx G + G By: O(n_modes) work and memory.  c may hold
    one vector per member, shape (..., n_modes).
    """
    if basis.dim == 1:
        (left, right), = basis.traces_1d
        return (left * _dot(left, c)[..., None]
                + right * _dot(right, c)[..., None])
    (lx, rx), (ly, ry) = basis.traces_1d
    G = c.reshape(c.shape[:-1] + basis.modes)
    # outer products, written out so they stay per member
    out = (lx[:, None] * (lx @ G)[..., None, :]
           + rx[:, None] * (rx @ G)[..., None, :]
           + (G @ ly)[..., :, None] * ly + (G @ ry)[..., :, None] * ry)
    return out.reshape(c.shape)


def boundary_integral_vector(basis: SpectralBasis) -> np.ndarray:
    """b_j = int_{boundary} w_j; equals M_boundary applied to the constant field."""
    return boundary_mass_apply(basis, constant_field(basis, 1.0).data)


def inner_product(c1: FieldCoeffs, c2: FieldCoeffs, kind: str = "L2"):
    """A float for single fields, one value per member for a batch."""
    _check_same_basis(c1, c2)
    if kind == "L2":
        out = _dot(c1.data, c2.data)
    elif kind == "H1-seminorm":
        out = _dot(c1.basis.eigenvalues * c1.data, c2.data)
    else:
        raise ValueError(f"unknown inner product kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def norm(c: FieldCoeffs, kind: str = "L2"):
    """A float for a single field, one value per member for a batch."""
    if kind == "H1":
        out = np.sqrt(inner_product(c, c, "L2")
                      + inner_product(c, c, "H1-seminorm"))
    else:
        out = np.sqrt(inner_product(c, c, kind))
    return float(out) if np.ndim(out) == 0 else out


def constant_field(basis: SpectralBasis, value: float) -> FieldCoeffs:
    data = np.zeros(basis.n_modes)
    data[0] = value * np.sqrt(basis.domain.volume)
    return FieldCoeffs(basis, data)
