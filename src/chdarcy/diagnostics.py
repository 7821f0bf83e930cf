"""The energy ledger and the per-snapshot diagnostics of a run.

energy is the ledger of one evaluated state.  DiagnosticsCollector
observes a run's snapshots and records, for each, the ledger, the
masses and norms, the running time-integrals of the dissipation, and
the defects of the mass laws and of the energy identity over the
interval before it: the rows of diagnostics.csv.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import spectral as sp
from .dynamics import StateFields
from .spectral import FieldCoeffs


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy parts, dissipation rates, and work rates at one instant.

    The four energy parts sum to total.  Dissipation entries are squared
    norms and stay nonnegative; the work entries carry the sign with
    which they enter the balance  dE/dt = -dissipation + work.
    """

    psi_part: float          # int A psi(phi)
    gradient_part: float     # (B/2) |grad phi|^2
    nutrient_part: float     # (D/2) |sigma|^2
    chemotaxis_part: float   # chi int sigma (1 - phi)
    total: float

    diss_mu: float           # int m |grad mu|^2
    diss_nutrient: float     # int n |grad N_sigma|^2
    diss_darcy: float        # (1/K) |v|^2
    diss_boundary: float     # D b |sigma|^2 on the boundary

    work_phi_source: float       # int Gamma_phi mu
    work_nutrient_source: float  # -int S N_sigma
    work_volume_source: float    # int Gamma_v (p - mu phi - (D/2) sigma^2)
    work_boundary: float         # b int_bdry (sigma_inf N_sigma - chi sigma (1-phi))

    @property
    def dissipation(self) -> float:
        return (self.diss_mu + self.diss_nutrient
                + self.diss_darcy + self.diss_boundary)

    @property
    def work(self) -> float:
        return (self.work_phi_source + self.work_nutrient_source
                + self.work_volume_source + self.work_boundary)

    @property
    def power(self) -> float:
        """Predicted dE/dt."""
        return -self.dissipation + self.work


def energy(f: StateFields) -> EnergyBreakdown:
    """Energy ledger of the evaluated state f (see dynamics.StateFields)."""
    state, eff = f.state, f.model
    sp._single_member(state.alpha, "energy")
    params = eff.params
    grid = f.grid
    alpha, gamma = state.alpha, state.gamma

    psi_part, gradient_part, nutrient_part, chemotaxis_part = f.energy_parts
    total = psi_part + gradient_part + nutrient_part + chemotaxis_part

    # int m |grad mu|^2 and int n |grad N_sigma|^2, sums over the modes
    lam, mu = state.basis.eigenvalues, f.mu.data
    N = params.D * gamma.data - params.chi * alpha.data  # N_sigma - chi
    diss_mu = eff.mobility_m * float((lam * mu * mu).sum())
    diss_nutrient = eff.mobility_n * float((lam * N * N).sum())
    diss_darcy = 0.0 if f.no_flow else f.v_sq / params.K
    diss_boundary = params.D * params.b * f.sigma_boundary_sq

    # N_sigma, the sigma-derivative of the nutrient free energy density
    N_sigma = params.D * f.sigma_g + params.chi * (1.0 - f.phi_g)
    work_phi_source = grid.integrate(f.gamma_phi * f.mu_g)
    work_nutrient_source = -grid.integrate(f.S * N_sigma)

    work_volume_source = 0.0
    if eff.gamma_v is not None and not f.no_flow:
        gv = sp.to_grid(eff.gamma_v, grid)
        p_g = sp.to_grid(f.p, grid)
        lam_v = p_g - f.mu_g * f.phi_g - 0.5 * params.D * f.sigma_g ** 2
        work_volume_source = grid.integrate(gv * lam_v)

    # boundary work, exact in the truncated basis: traces of the series
    bvec = state.basis.boundary_vector
    bdry_measure = state.basis.domain.boundary_measure
    int_sigma = f.sigma_boundary
    int_N_sigma = (params.D * int_sigma
                   + params.chi * (bdry_measure - float(alpha.data @ bvec)))
    int_sigma_one_minus_phi = int_sigma - float(f.M_gamma @ alpha.data)
    work_boundary = params.b * (eff.sigma_inf * int_N_sigma
                                - params.chi * int_sigma_one_minus_phi)

    return EnergyBreakdown(
        psi_part=psi_part, gradient_part=gradient_part,
        nutrient_part=nutrient_part, chemotaxis_part=chemotaxis_part,
        total=total,
        diss_mu=diss_mu, diss_nutrient=diss_nutrient,
        diss_darcy=diss_darcy, diss_boundary=diss_boundary,
        work_phi_source=work_phi_source,
        work_nutrient_source=work_nutrient_source,
        work_volume_source=work_volume_source,
        work_boundary=work_boundary,
    )


def _energy_defect(dt: float, e0: EnergyBreakdown,
                   e1: EnergyBreakdown) -> float:
    """Defect of the energy balance over an interval of length dt:
    E_1 - E_0 - dt * (power_1 + power_0) / 2, the power evaluated from
    the endpoint ledgers."""
    return (e1.total - e0.total) - dt * 0.5 * (e1.power + e0.power)


def _mass_defect(dt: float, c0: FieldCoeffs, c1: FieldCoeffs,
                 rate: float) -> float:
    """Defect of a mass law over an interval of length dt: the change of
    the total mass (the constant mode) minus dt times the rate at the
    interval's start."""
    vol_root = np.sqrt(c1.basis.domain.volume)
    return (c1.data[0] - c0.data[0]) * vol_root - dt * rate


def _mass_rates(f: StateFields) -> tuple[float, float]:
    """Exact rates of the total masses, by the constant test function."""
    state, params = f.state, f.model.params
    rate_phi = f.grid.integrate(f.gamma_phi)
    # S is Gamma_phi itself when the two reaction laws are equal
    consumed = (rate_phi if f.S is f.gamma_phi
                else f.grid.integrate(f.S))
    rate_sigma = -consumed + params.b * (
        f.model.sigma_inf * state.basis.domain.boundary_measure
        - f.sigma_boundary
    )
    return rate_phi, rate_sigma


def trapezoid(y, x) -> float:
    """Trapezoid rule, term for term as scipy.integrate.trapezoid."""
    y, x = np.asarray(y), np.asarray(x)
    return np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0)


def velocity_time_norms(times, v_sq, K: float) -> tuple[float, float]:
    """|v|_{L2(L2)} over the snapshots (trapezoid in time), from their
    |v|^2 integrals, and its rescaling K^{-1/2} |v|_{L2(L2)}, which is 0
    when K = 0."""
    v_l2l2 = float(np.sqrt(trapezoid(v_sq, times)))
    return v_l2l2, (float(v_l2l2 / np.sqrt(K)) if K > 0 else 0.0)


# ---------------------------------------------------------------------------
# the rows of diagnostics.csv, one per snapshot, named by the header

CSV_COLUMNS = (
    "time",
    "E_total", "E_psi", "E_gradient", "E_nutrient", "E_chemotaxis",
    "diss_mu", "diss_nutrient", "diss_darcy", "diss_boundary",
    "mass_phi", "mass_sigma",
    "norm_phi_H1", "norm_sigma_L2", "norm_mu_H1", "norm_grad_sigma",
    "norm_v_L2", "norm_v_scaled", "norm_p_H1", "norm_sigma_boundary",
    "acc_diss_mu", "acc_diss_nutrient", "acc_diss_darcy", "acc_diss_boundary",
    "res_mass_phi", "res_mass_sigma", "res_energy_identity",
)
DiagnosticsRow = namedtuple("DiagnosticsRow", CSV_COLUMNS)


class DiagnosticsCollector:
    """Observer that turns the run's evaluated snapshots into
    DiagnosticsRows.

    Keeps running time-integrals of the dissipation terms (trapezoid
    between recorded snapshots) and per-interval residuals of the mass
    laws and the energy identity, so its state can be checkpointed.
    """

    def __init__(self):
        self.records: list[DiagnosticsRow] = []
        # last snapshot: state, energy ledger, dissipation vector, mass rates
        self._prev = None
        self._acc = np.zeros(4)

    def accumulators(self) -> np.ndarray:
        return self._acc.copy()

    def restore(self, acc: np.ndarray):
        """Continue a checkpointed run with the time integrals acc.  The
        resumed run observes its start, the checkpointed state, first:
        that row repeats the checkpoint's row with zero residuals and
        rebuilds the ledger the next interval is measured against."""
        self._acc = np.asarray(acc, dtype=float).copy()

    def observe(self, fields: StateFields):
        """Record a snapshot's row from its evaluation.  A row that is not
        finite is a BlowUpError at the snapshot's time, and is not kept."""
        state, basis, t = fields.state, fields.state.basis, fields.state.t
        bd = energy(fields)
        params = fields.model.params
        vol_root = np.sqrt(basis.domain.volume)
        v_L2 = float(np.sqrt(fields.v_sq))
        diss = np.array([bd.diss_mu, bd.diss_nutrient,
                         bd.diss_darcy, bd.diss_boundary])

        res_phi = res_sigma = res_energy = 0.0
        if self._prev is not None:
            prev, prev_bd, prev_diss, (rate_phi, rate_sigma) = self._prev
            dt = t - prev.t
            self._acc += 0.5 * dt * (diss + prev_diss)
            res_phi = _mass_defect(dt, prev.alpha, state.alpha, rate_phi)
            res_sigma = _mass_defect(dt, prev.gamma, state.gamma, rate_sigma)
            res_energy = _energy_defect(dt, prev_bd, bd)

        row = DiagnosticsRow(
            time=t,
            E_total=bd.total, E_psi=bd.psi_part, E_gradient=bd.gradient_part,
            E_nutrient=bd.nutrient_part, E_chemotaxis=bd.chemotaxis_part,
            diss_mu=bd.diss_mu, diss_nutrient=bd.diss_nutrient,
            diss_darcy=bd.diss_darcy, diss_boundary=bd.diss_boundary,
            mass_phi=state.alpha.data[0] * vol_root,
            mass_sigma=state.gamma.data[0] * vol_root,
            norm_phi_H1=sp.norm(state.alpha, "H1"),
            norm_sigma_L2=sp.norm(state.gamma),
            norm_mu_H1=sp.norm(fields.mu, "H1"),
            norm_grad_sigma=sp.norm(state.gamma, "H1-seminorm"),
            norm_v_L2=v_L2,
            norm_v_scaled=(0.0 if fields.no_flow
                           else float(v_L2 / np.sqrt(params.K))),
            norm_p_H1=sp.norm(fields.p, "H1"),
            norm_sigma_boundary=float(
                np.sqrt(max(0.0, fields.sigma_boundary_sq))),
            acc_diss_mu=self._acc[0], acc_diss_nutrient=self._acc[1],
            acc_diss_darcy=self._acc[2], acc_diss_boundary=self._acc[3],
            res_mass_phi=res_phi,
            res_mass_sigma=res_sigma,
            res_energy_identity=res_energy,
        )
        if not all(map(math.isfinite, row)):
            raise dyn.BlowUpError("diagnostics left the float range",
                                  t=t, state=state)
        self.records.append(row)
        self._prev = (state, bd, diss, _mass_rates(fields))
