"""Energy functional, boundary flux, and the exact identities behind decay.

Everything here evaluates on reference-frame snapshots but measures physical
quantities: with y = x/alpha, dx = alpha dy, u_t = w - (y alpha'/alpha) v_y
and u_x = v_y / alpha. Spatial integrals use the grid's composite Simpson
weights; space-time integrals add a trapezoid rule over snapshot times.

snapshot_integrals computes every integral the checks below use in one pass
over a run's snapshots; every check reads that table, and energy and
boundary_flux are its one-snapshot case.

Three checks are provided.

1. Energy rate. Multiplying the equation by u_t and transporting the time
   derivative across the moving domain gives the exact rate

       dE/dt = -a ||u_t||^2 - flux(t) + (beta'(t)/(rho+2)) int |u|^(rho+2) dx
               [ + int f u_t dx  when a manufactured source is active ]

   with flux(t) = (1/2) alpha' (1 - alpha'^2) u_x(alpha(t), t)^2 >= 0.
   energy_rate_residual measures the defect of the snapshot series against
   this identity with second-order time differences.

2. Boundary sign. boundary_flux returns the flux above; its sign is manifest
   whenever 0 <= alpha' < 1, which is the one-dimensional boundary-sign
   argument (the lateral boundary is time-like and the domain expands).

3. Multiplier identity. Multiplying instead by (u_t + lambda u) phi(t) with
   phi = exp(s t) and integrating over the space-time slab yields a sum of
   roughly twenty-five integrals that cancels exactly for solutions.
   multiplier_identity_residual evaluates every term separately (grouped by
   the equation piece it came from: u_tt, -u_xx, a u_t, b u, the nonlinear
   term, and the source), exposing both the total defect and the grouped
   lateral-boundary contribution whose nonnegativity the decay proof needs.

Lateral-boundary integrals reduce in one dimension to endpoint evaluations
with n_t dsigma = -alpha'(t) dt and n_x dsigma = dt at the moving endpoint
(the fixed endpoint has n_t = 0 and contributes nothing since u_t = 0
there). On the moving boundary u = 0 gives u_t = -alpha' u_x, an identity
the discretization inherits exactly because w and v vanish on the boundary
row, so either form may be used in the endpoint integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .model import ProblemSpec
from .solver import Grid, ReferenceState, Trajectory, manufactured_forcing

BLOCK = 64  # snapshots per block of snapshot_integrals; bounds its temporaries


def first_derivative(values: np.ndarray, dy: float) -> np.ndarray:
    """Second-order d/dy along the last axis: central inside, 3-point one-sided ends."""
    d = np.empty_like(values)
    d[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dy)
    d[..., 0] = (-3.0 * values[..., 0] + 4.0 * values[..., 1] - values[..., 2]) / (2.0 * dy)
    d[..., -1] = (3.0 * values[..., -1] - 4.0 * values[..., -2] + values[..., -3]) / (2.0 * dy)
    return d


@dataclass(frozen=True)
class SnapshotIntegrals:
    """Everything the checks use at each snapshot, one (nsnap,) array per field.

    ut2, ux2, u2, uut and nl are int u_t^2, int u_x^2, int u^2, int u u_t and
    int |u|^(rho+2) over the physical interval; ux_end is u_x at the moving
    endpoint. fut and fu are int f u_t and int f u for a forced run, else None.
    """

    t: np.ndarray
    alpha_p: np.ndarray
    beta: np.ndarray
    beta_p: np.ndarray
    ut2: np.ndarray
    ux2: np.ndarray
    u2: np.ndarray
    uut: np.ndarray
    nl: np.ndarray
    ux_end: np.ndarray
    fut: np.ndarray | None
    fu: np.ndarray | None

    @property
    def flux(self) -> np.ndarray:
        """Moving-endpoint flux (1/2) alpha' (1 - alpha'^2) u_x(alpha(t), t)^2.

        Nonnegative for every accepted family: 0 <= alpha' < 1 under (A1).
        """
        ap = self.alpha_p
        return 0.5 * ap * (1.0 - ap * ap) * self.ux_end**2


def snapshot_integrals(spec: ProblemSpec, grid: Grid, times, V, W) -> SnapshotIntegrals:
    """One pass over the snapshots (times[k], V[k], W[k]), BLOCK at a time.

    u_t, u_x and, for a forced run, the source are built once per snapshot
    and integrated with the Simpson weights times alpha(t).
    """
    times = np.asarray(times, dtype=float)
    scalars = np.array([(*spec.alpha.eval(t)[:2], *spec.beta_at(t)) for t in times.tolist()])
    al, ap, bt, bt_p = scalars.T
    forcing = manufactured_forcing(spec.source, spec) if spec.source is not None else None
    names = ("ut2", "ux2", "u2", "uut", "nl") + (("fut", "fu") if forcing is not None else ())
    ints = {name: np.empty(times.size) for name in names}
    ux_end = np.empty(times.size)
    q, y, power = grid.quad_weights, grid.y, spec.damping.rho + 2.0
    for lo in range(0, times.size, BLOCK):
        k = slice(lo, lo + BLOCK)
        # the source first, so that its temporaries are gone before the block's own
        f = forcing(y, times[k]) if forcing is not None else None
        v, w, al_k = V[k], W[k], al[k, None]
        v_y = first_derivative(v, grid.dy)
        u_t = w - (y * (ap[k, None] / al_k)) * v_y
        u_x = v_y / al_k
        ints["ut2"][k] = u_t**2 @ q
        ints["ux2"][k] = u_x**2 @ q
        ints["u2"][k] = v**2 @ q
        ints["uut"][k] = (v * u_t) @ q
        ints["nl"][k] = np.abs(v) ** power @ q
        ux_end[k] = u_x[:, -1]
        if f is not None:
            ints["fut"][k] = (f * u_t) @ q
            ints["fu"][k] = (f * v) @ q
    for values in ints.values():
        values *= al  # dx = alpha dy
    return SnapshotIntegrals(
        **{"fut": None, "fu": None, **ints},
        t=times, alpha_p=ap, beta=bt, beta_p=bt_p, ux_end=ux_end,
    )


def _table(traj: Trajectory, table: SnapshotIntegrals | None) -> SnapshotIntegrals:
    """table if given (it must be traj's), else one pass over traj's snapshots."""
    if table is None:
        table = snapshot_integrals(traj.spec, traj.grid, traj.times, traj.V, traj.W)
    return table


@dataclass(frozen=True)
class EnergySample:
    """Energy value at one time with its four addends and the boundary flux."""

    t: float
    E: float
    kinetic: float
    gradient: float
    restoring: float
    nonlinear: float
    flux: float


@dataclass(frozen=True)
class EnergySeries:
    """Energy of a run at its snapshot times, one (nsnap,) array per column.

    E = int (1/2 u_t^2 + 1/2 u_x^2 + b/2 u^2 + beta/(rho+2) |u|^(rho+2)) dx
    is the sum of the kinetic, gradient, restoring and nonlinear addends;
    flux is the moving-endpoint flux.
    """

    t: np.ndarray
    E: np.ndarray
    kinetic: np.ndarray
    gradient: np.ndarray
    restoring: np.ndarray
    nonlinear: np.ndarray
    flux: np.ndarray

    @classmethod
    def from_table(
        cls, table: SnapshotIntegrals, spec: ProblemSpec, paper_literal: bool = False
    ) -> "EnergySeries":
        """paper_literal swaps the restoring weight b/2 for the literal 1/2; the
        identity checks always use the exact-primitive form regardless."""
        kinetic = 0.5 * table.ut2
        gradient = 0.5 * table.ux2
        restoring = (0.5 if paper_literal else 0.5 * spec.damping.b) * table.u2
        nonlinear = (table.beta / (spec.damping.rho + 2.0)) * table.nl
        E = kinetic + gradient + restoring + nonlinear
        return cls(table.t, E, kinetic, gradient, restoring, nonlinear, table.flux)

    @classmethod
    def from_trajectory(
        cls, traj: Trajectory, paper_literal: bool = False, table: SnapshotIntegrals | None = None
    ) -> "EnergySeries":
        return cls.from_table(_table(traj, table), traj.spec, paper_literal)

    @property
    def e0(self) -> float:
        return float(self.E[0])


def energy(state: ReferenceState, spec: ProblemSpec, grid: Grid, paper_literal: bool = False) -> EnergySample:
    """Energy and its addends at one snapshot (see EnergySeries)."""
    table = snapshot_integrals(spec, grid, [state.t], state.v[None], state.w[None])
    series = EnergySeries.from_table(table, spec, paper_literal)
    return EnergySample(*(float(getattr(series, f.name)[0]) for f in fields(EnergySample)))


def boundary_flux(state: ReferenceState, spec: ProblemSpec, grid: Grid) -> float:
    """Moving-endpoint flux (1/2) alpha' (1 - alpha'^2) u_x(alpha(t), t)^2 at one snapshot."""
    return float(snapshot_integrals(spec, grid, [state.t], state.v[None], state.w[None]).flux[0])


def write_energy_csv(series: EnergySeries, path, bound=None) -> None:
    """Write the series as CSV with columns t,E,kinetic,gradient,restoring,nonlinear,flux,bound.

    bound is an optional array of certificate values C E(0) exp(-lambda t);
    the column is left empty when no certificate exists. Floats are written
    with repr so identical runs produce bit-identical files.
    """
    rows = ["t,E,kinetic,gradient,restoring,nonlinear,flux,bound"]
    columns = [getattr(series, f.name) for f in fields(EnergySeries)]
    for i, cells in enumerate(zip(*columns)):
        text = [repr(float(c)) for c in cells]
        text.append(repr(float(bound[i])) if bound is not None else "")
        rows.append(",".join(text))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# energy-rate identity


def _needs_three(traj: Trajectory, who: str) -> None:
    if traj.times.size < 3:
        raise ConfigError(f"{who} needs at least 3 snapshots, got {traj.times.size}")


def energy_rate_residual(traj: Trajectory, table: SnapshotIntegrals | None = None) -> float:
    """Sup over interior snapshots of the energy-rate identity defect.

    Compares a second-order time difference of E, exact on quadratics for
    any snapshot spacing, against the exact rate
    -a ||u_t||^2 - flux + (beta'/(rho+2)) int |u|^(rho+2) dx, plus the
    source work int f u_t dx when the run is forced.
    """
    _needs_three(traj, "energy_rate_residual")
    table = _table(traj, table)
    E = EnergySeries.from_table(table, traj.spec).E
    a, rho = traj.spec.damping.a, traj.spec.damping.rho
    rate = -a * table.ut2 - table.flux + (table.beta_p / (rho + 2.0)) * table.nl
    if table.fut is not None:
        rate = rate + table.fut
    t = table.t
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    dE = (
        -h2 / (h1 * (h1 + h2)) * E[:-2]
        + (h2 - h1) / (h1 * h2) * E[1:-1]
        + h1 / (h2 * (h1 + h2)) * E[2:]
    )
    return float(np.max(np.abs(dE - rate[1:-1]), initial=0.0))


# ---------------------------------------------------------------------------
# multiplier identity


@dataclass(frozen=True)
class IdentityTerm:
    name: str
    group: str
    value: float


@dataclass(frozen=True)
class IdentityReport:
    """Term-by-term evaluation of the multiplier identity plus the rate defect.

    residual_plu is the signed sum of every term; it vanishes for exact
    solutions, so its size on a computed trajectory is pure discretization
    error. boundary_group collects the lateral-boundary terms whose
    nonnegativity is the decay proof's sign argument.
    """

    residual_rate: float
    residual_plu: float
    terms: tuple[IdentityTerm, ...]
    lam: float
    phi_rate: float

    @property
    def scale(self) -> float:
        return sum(abs(term.value) for term in self.terms)

    @property
    def relative_residual(self) -> float:
        scale = self.scale
        return abs(self.residual_plu) / scale if scale > 0.0 else 0.0

    @property
    def boundary_group(self) -> float:
        return sum(t.value for t in self.terms if t.group == "boundary")

    def term(self, name: str) -> float:
        for t in self.terms:
            if t.name == name:
                return t.value
        raise KeyError(name)


def multiplier_identity_residual(
    traj: Trajectory, lam: float, phi_rate: float, table: SnapshotIntegrals | None = None
) -> IdentityReport:
    """Evaluate every integral of the multiplier identity with phi = exp(s t).

    The equation is multiplied by (u_t + lambda u) phi and integrated over
    the space-time slab; each piece is integrated by parts in its natural
    direction. Volume integrals are Simpson in y and trapezoid in t; the
    endpoint (lateral-boundary) integrals are trapezoid in t; the t = 0 and
    t = T slices come from the first and last snapshots.
    """
    _needs_three(traj, "multiplier_identity_residual")
    if not (lam > 0.0) or not (phi_rate > 0.0):
        raise ConfigError("multiplier_identity_residual needs lam > 0 and phi_rate > 0")

    vol = _table(traj, table)
    a, b, rho = traj.spec.damping.a, traj.spec.damping.b, traj.spec.damping.rho
    times, ap, ux_end, beta, beta_p = vol.t, vol.alpha_p, vol.ux_end, vol.beta, vol.beta_p
    phi = np.exp(phi_rate * times)
    phi_p = phi_rate * phi
    phi0, phiT = float(phi[0]), float(phi[-1])

    def tint(values: np.ndarray) -> float:
        return float(np.trapezoid(values, times))

    terms: list[IdentityTerm] = []

    def add(name: str, group: str, value: float):
        terms.append(IdentityTerm(name=name, group=group, value=float(value)))

    # ---- u_tt piece: (1/2 u_t^2 phi + lambda phi u u_t)_t expansion
    add("ut2_T", "eq2", 0.5 * phiT * vol.ut2[-1])
    add("uut_T", "eq2", lam * phiT * vol.uut[-1])
    add("ut2_0", "eq2", -0.5 * phi0 * vol.ut2[0])
    add("uut_0", "eq2", -lam * phi0 * vol.uut[0])
    # lateral boundary: + int 1/2 u_t^2 phi n_t dsigma, with u_t = -alpha' u_x there
    add("bdry_ut2", "boundary", tint(-0.5 * ap**3 * ux_end**2 * phi))
    add("vol_lam_ut2", "eq2", -lam * tint(phi * vol.ut2))
    add("vol_phip_ut2", "eq2", -0.5 * tint(phi_p * vol.ut2))
    add("vol_lam_phip_uut", "eq2", -lam * tint(phi_p * vol.uut))

    # ---- -u_xx piece
    add("ux2_T", "eq3", 0.5 * phiT * vol.ux2[-1])
    add("ux2_0", "eq3", -0.5 * phi0 * vol.ux2[0])
    # lateral boundary: + int 1/2 u_x^2 phi n_t dsigma
    add("bdry_ux2", "boundary", tint(-0.5 * ap * ux_end**2 * phi))
    # - int [u_x u_t phi] at the endpoints; only the moving endpoint survives
    add("div_uxut", "boundary", tint(ap * ux_end**2 * phi))
    add("vol_phip_ux2", "eq3", -0.5 * tint(phi_p * vol.ux2))
    add("vol_lam_ux2", "eq3", lam * tint(phi * vol.ux2))

    # ---- a u_t piece
    add("vol_a_ut2", "eq4", a * tint(phi * vol.ut2))
    add("vol_a_lam_uut", "eq4", a * lam * tint(phi * vol.uut))

    # ---- b u piece
    add("u2_T", "eq5", 0.5 * b * phiT * vol.u2[-1])
    add("u2_0", "eq5", -0.5 * b * phi0 * vol.u2[0])
    add("vol_b_phip_u2", "eq5", -0.5 * b * tint(phi_p * vol.u2))
    add("vol_b_lam_u2", "eq5", b * lam * tint(phi * vol.u2))

    # ---- nonlinear piece
    add("nl_T", "eq6", (beta[-1] * phiT / (rho + 2.0)) * vol.nl[-1])
    add("nl_0", "eq6", -(beta[0] * phi0 / (rho + 2.0)) * vol.nl[0])
    add("vol_betp_nl", "eq6", -tint(beta_p * phi * vol.nl) / (rho + 2.0))
    add("vol_bet_phip_nl", "eq6", -tint(beta * phi_p * vol.nl) / (rho + 2.0))
    add("vol_lam_bet_nl", "eq6", lam * tint(beta * phi * vol.nl))

    # ---- source piece (zero unless manufactured)
    if vol.fut is not None:
        add("vol_f", "source", -tint(phi * (vol.fut + lam * vol.fu)))

    residual_plu = float(sum(t.value for t in terms))
    rate = energy_rate_residual(traj, table=vol)
    return IdentityReport(rate, residual_plu, tuple(terms), float(lam), float(phi_rate))


def write_identity_csv(report: IdentityReport, path) -> None:
    """Persist the term breakdown as CSV rows term,group,value plus summary rows."""
    rows = ["term,group,value"]
    for term in report.terms:
        rows.append(f"{term.name},{term.group},{repr(float(term.value))}")
    rows.append(f"residual_plu,summary,{repr(float(report.residual_plu))}")
    rows.append(f"relative_residual,summary,{repr(float(report.relative_residual))}")
    rows.append(f"residual_rate,summary,{repr(float(report.residual_rate))}")
    rows.append(f"boundary_group,summary,{repr(float(report.boundary_group))}")
    rows.append(f"lambda,summary,{repr(float(report.lam))}")
    rows.append(f"phi_rate,summary,{repr(float(report.phi_rate))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
