"""Neumann-Laplacian cosine eigenbasis on intervals and rectangles.

The basis is closed-form: on [0, L] the eigenfunctions of -d^2/dx^2 with
zero Neumann data are w_0 = 1/sqrt(L) and w_m(x) = sqrt(2/L) cos(m pi x / L)
with eigenvalue (m pi / L)^2.  Rectangles use the tensor product, with
eigenvalues adding.  All quadrature is the uniform midpoint rule, which
integrates products of resolved cosine modes exactly, so the transforms
below are projections rather than approximations.

Each transform is one loop over the axes, applying a 1D matrix per axis
through _along, the one place that knows how a field's axes are laid out.

Fields are FieldCoeffs, the unknowns of the Galerkin scheme.  Values on
a quadrature grid are the intermediates of a projection and are plain
arrays; every transform takes the grid they live on as an argument, and
to_coeffs is where values from outside the program are checked.

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
from functools import cached_property, reduce

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
        """2 sum_d prod_{e != d} L_e: the two end faces of each axis."""
        L = self.lengths
        return 2.0 * sum(math.prod(L[:d] + L[d + 1:]) for d in range(self.dim))


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
    eigenvalues: np.ndarray = field(repr=False)  # flat, C-order over mode tuple
    # per-dim basis values at the endpoints 0 and L
    traces_1d: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    # constants of the basis, read by every transform: computed once
    @cached_property
    def n_modes(self) -> int:
        return math.prod(self.modes)

    @cached_property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def default_grid(self) -> "QuadratureGrid":
        """The shared dealiased grid, built on first use."""
        return self.quadrature_grid()

    @cached_property
    def boundary_vector(self) -> np.ndarray:
        """b_j = int_{boundary} w_j, built on first use; read-only, as
        every caller shares it."""
        bvec = boundary_mass_apply(self, constant_field(self, 1.0).data)
        bvec.flags.writeable = False
        return bvec

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
        if len(npoints) != self.dim or any(
                n < m for n, m in zip(npoints, minimum)):
            raise BasisMismatchError(
                f"grid {tuple(npoints)} does not meet the dealiasing minimum "
                f"{minimum}, one count per axis")
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
            W=reduce(np.multiply.outer, weights),
            synth=tuple(synth),
            deriv=tuple(deriv),
        )


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    basis: SpectralBasis
    npoints: tuple[int, ...]
    nodes: tuple[np.ndarray, ...]
    W: np.ndarray = field(repr=False)  # tensor product of the 1D weights
    synth: tuple[np.ndarray, ...]  # per-dim synthesis matrices, (n, k)
    deriv: tuple[np.ndarray, ...]  # per-dim derivative matrices, (n, k)

    @cached_property
    def dim(self) -> int:
        return self.basis.dim

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.nodes, indexing="ij")

    def integrate(self, values: np.ndarray) -> float:
        """Integral of one member's grid values."""
        if np.shape(values) != self.npoints:
            raise BasisMismatchError(
                f"integrate takes one member's values of shape "
                f"{self.npoints}, got {np.shape(values)}")
        return float((self.W * values).sum())

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


def _unchecked(basis: SpectralBasis, data: np.ndarray) -> FieldCoeffs:
    """FieldCoeffs(basis, data) without the checks of its __post_init__.

    For the coefficients an evaluation builds from its own grid values:
    weak_form's output and the pressure.  data must be a float array of
    shape (..., n_modes); finiteness is checked where a state is made,
    not on each intermediate.
    """
    obj = object.__new__(FieldCoeffs)
    obj.basis = basis
    obj.data = data
    return obj


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


def _along(M: np.ndarray, x: np.ndarray, d: int, dim: int) -> np.ndarray:
    """The 1D matrix M applied along field axis d of each member of x,
    whose members are fields of dim axes; a vector M contracts axis d.
    Stacked: each member (in 1D, a column vector) is multiplied alone."""
    if dim == 1:
        return _dot(M, x) if M.ndim == 1 else np.matmul(M, x[..., None])[..., 0]
    if d == dim - 2:
        return M @ x
    return x @ M.T


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
    eigs_1d = [(np.arange(k) * np.pi / L) ** 2
               for L, k in zip(domain.lengths, modes)]
    return SpectralBasis(
        domain=domain, modes=modes,
        eigenvalues=reduce(np.add.outer, eigs_1d).ravel(),
        traces_1d=tuple(_trace_1d(L, k) for L, k in zip(domain.lengths, modes)),
    )


def to_grid(c: FieldCoeffs, g: QuadratureGrid) -> np.ndarray:
    """Synthesis: evaluate the cosine series at the grid nodes."""
    if g.basis is not c.basis:
        raise BasisMismatchError("grid was built for a different basis")
    x = c.tensor()
    for d, S in enumerate(g.synth):
        x = _along(S, x, d, g.dim)
    return x


def weak_form(g: QuadratureGrid, source: np.ndarray | None,
              flux: tuple[np.ndarray, ...] = ()) -> FieldCoeffs:
    """Galerkin projection: j-th coefficient is int s w_j - int F . grad(w_j).

    The one analysis kernel: an equation's source and flux, values on g,
    are tested against every w_j in a single pass over the grid.  With
    the zero-normal-flux basis the flux part is the weak divergence, the
    integration-by-parts partner of gradient_on_grid.
    """
    if flux and len(flux) != g.dim:
        raise BasisMismatchError(
            f"{len(flux)} components for a {g.dim}-dimensional grid"
        )
    S, D, W, dim = g.synth, g.deriv, g.W, g.dim
    # the source and the first flux component are tested along axis 0
    # together, so they share every later-axis transform
    data = _along(S[0].T, W * source, 0, dim) if source is not None else None
    if flux:
        f0 = _along(D[0].T, W * flux[0], 0, dim)
        data = -f0 if data is None else data - f0
    for d in range(1, dim):
        data = _along(S[d].T, data, d, dim)
    # every later component is tested with D along its own axis
    for i in range(1, len(flux)):
        fi = W * flux[i]
        for d in range(dim):
            fi = _along((D if d == i else S)[d].T, fi, d, dim)
        data -= fi
    return _unchecked(g.basis, data.reshape(data.shape[:data.ndim - dim] + (-1,)))


def to_coeffs(g: QuadratureGrid, values) -> FieldCoeffs:
    """Analysis: L2 projection of values on g, of shape (..., *npoints),
    onto the basis via quadrature.  A wrong shape raises
    BasisMismatchError, and coefficients that leave the float range
    raise SpectralError."""
    values = np.asarray(values, dtype=float)
    if values.shape[-len(g.npoints):] != g.npoints:
        raise BasisMismatchError(
            f"grid values shape {values.shape} does not match grid "
            f"{g.npoints}"
        )
    return FieldCoeffs(g.basis, weak_form(g, values).data)


def gradient_on_grid(c: FieldCoeffs, g: QuadratureGrid
                     ) -> tuple[np.ndarray, ...]:
    """Exact derivative of the cosine series, evaluated at the nodes."""
    if g.basis is not c.basis:
        raise BasisMismatchError("grid was built for a different basis")
    C = c.tensor()
    components = []
    for i in range(g.dim):
        x = C
        for d in range(g.dim):
            x = _along((g.deriv if d == i else g.synth)[d], x, d, g.dim)
        components.append(x)
    return tuple(components)


def divergence_to_coeffs(g: QuadratureGrid,
                         components: tuple[np.ndarray, ...]) -> FieldCoeffs:
    """Weak divergence: j-th coefficient is -int F . grad(w_j), for the
    vector field F with the given components on g."""
    return weak_form(g, None, components)


def boundary_mass_apply(basis: SpectralBasis, c: np.ndarray) -> np.ndarray:
    """M @ c for the boundary mass matrix M, without forming M.

    Each 1D factor B_d = left left^T + right right^T has rank 2, and M
    is the sum over axes d of B_d applied along axis d of
    G = c.reshape(modes) (on a rectangle, Bx G + G By): O(n_modes) work
    and memory.  c may hold one vector per member, shape (..., n_modes).
    """
    dim = basis.dim
    G = c.reshape(c.shape[:-1] + basis.modes)
    out = None
    for d, traces in enumerate(basis.traces_1d):
        # t along axis d times its contraction, unit axis at d: per member
        tail = (None,) * (dim - 1 - d)
        unit = (..., None) + (slice(None),) * (dim - 1 - d)
        for t in traces:
            term = t[(...,) + tail] * _along(t, G, d, dim)[unit]
            out = term if out is None else out + term
    return out.reshape(c.shape)


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
