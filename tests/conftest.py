import numpy as np
import pytest

from chdarcy import dynamics as dyn
from chdarcy import model as md
from chdarcy import spectral as sp


def make_params(**overrides) -> md.ModelParams:
    base = dict(A=1.0, B=0.01, K=1.0, D=1.0, chi=0.05, b=0.1)
    base.update(overrides)
    return md.ModelParams(**base)


def make_model(params=None, sources="hawkins", f0=0.1,
               potential=None, m=1.0, n=1.0, sigma_inf=1.0,
               gamma_v=None) -> md.TumourModel:
    if params is None:
        params = make_params()
    if potential is None:
        potential = md.Potential.quartic_double_well()
    if sources == "hawkins":
        source_model = md.SourceModel.hawkins(f0, params)
    elif sources == "zero":
        source_model = md.SourceModel.zero()
    else:
        source_model = sources
    return md.TumourModel(
        params=params,
        potential=potential,
        mobility_m=md.Mobility.constant(m),
        mobility_n=md.Mobility.constant(n),
        sources=source_model,
        sigma_inf=md.BoundaryAndInitialData.constant_sigma_inf(sigma_inf),
        gamma_v=gamma_v,
    )


def random_state(basis, seed, scale=0.2, t=0.0) -> dyn.SimState:
    rng = np.random.default_rng(seed)
    alpha = sp.FieldCoeffs(basis, scale * rng.standard_normal(basis.n_modes))
    gamma = sp.FieldCoeffs(basis, scale * rng.standard_normal(basis.n_modes))
    return dyn.SimState(t, alpha, gamma)


def same_bits(a, b) -> bool:
    """Same shape and the same bytes, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def interval_basis():
    return sp.build_basis(sp.Domain("interval", (1.0,)), 10)


@pytest.fixture
def rect_basis():
    return sp.build_basis(sp.Domain("rectangle", (1.0, 1.5)), (6, 5))
