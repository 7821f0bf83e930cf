import tracemalloc

import numpy as np
import pytest

from chdarcy import diagnostics as dg
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
        source_model = md.SourceModel.hawkins(f0)
    elif sources == "zero":
        source_model = md.SourceModel.zero()
    else:
        source_model = sources
    return md.TumourModel(
        params=params,
        potential=potential,
        mobility_m=m,
        mobility_n=n,
        sources=source_model,
        sigma_inf=sigma_inf,
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


def trajectory(initial, config, model, T, **kw) -> list:
    """The states of a run's snapshots, in order; dynamics.run keeps none."""
    return [f.state for f in dyn.snapshots(initial, config, model, T, **kw)]


def collected(states, model) -> list:
    """The DiagnosticsCollector's records of states observed in turn,
    each through its evaluation dyn.derive(state, model): the rows a run
    writes, for a list of states that need not come from one run."""
    collector = dg.DiagnosticsCollector()
    for s in states:
        collector.observe(dyn.derive(s, model))
    return collector.records


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes held at the peak of fn(*args, **kwargs) beyond those held
    when it started, as tracemalloc counts them (numpy buffers included)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name, for the test, by a
    wrapper that appends each call's arguments to a list and then calls
    the original; it returns that list."""
    def install(module, name: str) -> list:
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def interval_basis():
    return sp.build_basis(sp.Domain("interval", (1.0,)), 10)


@pytest.fixture
def rect_basis():
    return sp.build_basis(sp.Domain("rectangle", (1.0, 1.5)), (6, 5))
