"""Batched step-kernel engine for the auditorium simulator.

One engine integrates every trace: a solo :class:`AuditoriumSimulator`
run is a batch of one building, and :mod:`repro.simulation.fleet` puts
many same-shape buildings (a *cohort*) into one batch.  The pieces are

* a per-building :class:`KernelPlan` — every loop-invariant quantity
  (exogenous trajectories, control noise, tap/gather matrices, clipped
  setpoints, lag coefficients) precomputed once,
* a :class:`BatchPlan` — those plans stacked along a leading building
  axis by :func:`stack_plans`,
* a :class:`BatchState` — the mutable cross-step state threaded from
  chunk to chunk, and
* six small kernels (:class:`ThermostatTap`, :class:`PlantStep`,
  :class:`DiffuserMix`, :class:`ThermalIntegrate`, :class:`CO2Balance`,
  :class:`MoistureStep`) run in that order by :func:`integrate` each
  step, writing into the preallocated buffers of a :class:`BatchChunk`.

**Bit-identity.**  Every lane of a batch is ``np.array_equal`` to the
reference per-step loop (:meth:`AuditoriumSimulator.run_loop`) for its
building.  The seeded RNG draw order is unchanged (all noise is drawn up
front); per-building scalars become per-lane arrays, and elementwise
float64 ufuncs apply the same IEEE operation per lane; matrix-vector taps
are stacked ``np.matmul`` contractions, bitwise equal to the per-building
``@``; gathered sums and means keep numpy's reduction order.  Branches
that differ per lane (the occupied schedule, supervisory overrides,
zero-flow fallbacks) are resolved by pure ``np.where`` lane selection, so
no discarded lane can perturb a kept one.  Quantities that depend only on
exogenous inputs (CO₂ and moisture generation, the outdoor humidity
ratio) are evaluated for the whole horizon at plan time with the same
elementwise operations the step would have applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.contracts import ensure_finite, ensure_unit_range
from repro.errors import ConfigurationError, SimulationError
from repro.simulation.humidity import (
    ATMOSPHERIC_PRESSURE,
    EPSILON,
    MoistureConfig,
    humidity_ratio_from_rh,
)
from repro.simulation.rc_network import AIR_CP, AIR_DENSITY

__all__ = [
    "CO2_PER_PERSON",
    "OUTDOOR_CO2_PPM",
    "FRESH_AIR_FRACTION",
    "KernelPlan",
    "SimulationChunk",
    "HeldInputDerivative",
    "BatchPlan",
    "BatchState",
    "BatchChunk",
    "ThermostatTap",
    "PlantStep",
    "DiffuserMix",
    "ThermalIntegrate",
    "CO2Balance",
    "MoistureStep",
    "stack_plans",
    "integrate",
]

#: CO₂ generation per seated adult, m³/s.
CO2_PER_PERSON = 5.2e-6
#: Outdoor CO₂ concentration, ppm.
OUTDOOR_CO2_PPM = 420.0
#: Fraction of supply air that is fresh outdoor air.
FRESH_AIR_FRACTION = 0.3
#: Air density the moisture balance assumes, kg/m³.
MOISTURE_AIR_DENSITY = 1.2
#: Flows at or below this (m³/s) count as zero when flow-weighting.
_ZERO_FLOW = 1e-12

#: Plant branch of a batch step: no lane occupied, every lane occupied
#: (PI control), some lanes occupied, every lane on supervisory commands.
_NONE_OCCUPIED, _ALL_OCCUPIED, _MIXED, _OVERRIDE = 0, 1, 2, 3


class HeldInputDerivative:
    """Zero-order-hold adapter from the RC network to the integrator.

    Allocated once by the reference loop, its held inputs are re-pointed
    each step before the Euler sub-step loop runs.  Calling it is
    numerically identical to a per-step ``derivative`` closure.
    """

    __slots__ = ("network", "flow_kgs", "supply_temp_c", "heat_w", "ambient_c")

    def __init__(self, network) -> None:
        self.network = network
        self.flow_kgs: Optional[np.ndarray] = None
        self.supply_temp_c: Optional[np.ndarray] = None
        self.heat_w: Optional[np.ndarray] = None
        self.ambient_c: float = 0.0

    def __call__(self, zone_temps: np.ndarray, mass_temps: np.ndarray):
        """Network derivatives at the currently held inputs."""
        return self.network.derivatives(
            zone_temps, mass_temps, self.flow_kgs, self.supply_temp_c, self.heat_w, self.ambient_c
        )


@dataclass
class KernelPlan:
    """Loop-invariant precompute of one building.

    Built once per simulation run (from the simulator's models, in the
    exact order the reference loop consumes its RNG streams) and stacked
    with its cohort by :func:`stack_plans`.
    """

    n_steps: int
    dt: float
    n_zones: int
    n_vavs: int
    #: Hour-of-day per step (N,) and the schedule evaluated on it (N,).
    hours: np.ndarray
    occupied: np.ndarray
    #: Exogenous trajectories, full horizon.
    ambient: np.ndarray
    occupancy_total: np.ndarray
    zone_occupancy: np.ndarray
    lighting: np.ndarray
    #: (N, n_zones) occupant + lighting heat, precombined.
    zone_heat_w: np.ndarray
    #: Thermostat taps: (2, n_zones) weights and (N, 2) control noise.
    tstat_matrix: np.ndarray
    tstat_noise: np.ndarray
    #: Supervisory controller taps ((0, n_zones) when absent).
    controller_matrix: np.ndarray
    controller_noise: np.ndarray
    supervisory_controller: object
    #: Diffuser gather indices (one int array of VAV rows per diffuser).
    diffuser_idx: List[np.ndarray]
    front_full_flow: float
    thermostat_draft: float
    #: Plant/PI constants.
    blend: np.ndarray
    setpoint: float
    kp: float
    ki: float
    integrator_decay: float
    integrator_limit: float
    standby_flow_cmd: float
    #: VAV box constants (setpoint clips and exact-discretization lags).
    vav_min_flow: float
    vav_max_flow: float
    vav_flow_span: float
    cold_deck_temp: float
    reheat_max_temp: float
    alpha_flow: float
    alpha_temp: float
    #: Thermal network + integrator schedule.
    network: object = field(repr=False, default=None)
    substeps: int = 1
    substep_h: float = 0.0
    #: Room-level balances.
    room_volume: float = 0.0


@dataclass
class SimulationChunk:
    """One contiguous slab of one building's trajectory, steps ``start:stop``.

    Self-contained: carries both the integrated outputs and the
    matching slices of the exogenous inputs, so a sequence of chunks
    concatenates back into a full :class:`SimulationResult` without
    re-running any model (this is what the artifact cache stores).
    """

    index: int
    start: int
    stop: int
    zone_temps: np.ndarray
    mass_temps: np.ndarray
    vav_flows: np.ndarray
    vav_temps: np.ndarray
    co2: np.ndarray
    humidity_ratio: np.ndarray
    thermostat_readings: np.ndarray
    thermostat_true: np.ndarray
    occupancy: np.ndarray
    zone_occupancy: np.ndarray
    lighting: np.ndarray
    ambient: np.ndarray

    @property
    def n_steps(self) -> int:
        """Number of outer steps covered by this chunk."""
        return self.stop - self.start


def _gather(idx: np.ndarray) -> Union[slice, np.ndarray]:
    """The cheapest indexer selecting exactly the columns ``idx``: a
    slice (a view) when they are consecutive, else ``idx`` itself."""
    if idx.size and np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


@dataclass
class BatchPlan:
    """Per-building :class:`KernelPlan` precomputes stacked to ``(B, ...)``.

    Per-building scalars are broadcast up front to the shape of the
    state they meet — ``(B, V)`` for VAV quantities, ``(B, Z)`` for zone
    quantities — so each step's ufuncs run on equal shapes, applying
    the same IEEE operation per lane as the scalar did.  Arrays that the
    cohort key pins to be identical across members (gather indices,
    sub-step schedule) stay unstacked.
    """

    n_buildings: int
    n_steps: int
    dt: float
    n_zones: int
    n_vavs: int
    hours: np.ndarray  # (N,) shared time axis
    occupied: np.ndarray  # (B, N) bool
    #: Per step: no lane, every lane or some lanes occupied.
    schedule_mode: List[int]
    ambient: np.ndarray  # (B, N)
    occupancy_total: np.ndarray  # (B, N)
    zone_occupancy: np.ndarray  # (B, N, Z)
    lighting: np.ndarray  # (B, N)
    zone_heat_w: np.ndarray  # (B, N, Z)
    tstat_matrix: np.ndarray  # (B, 2, Z)
    tstat_noise: np.ndarray  # (B, N, 2)
    #: Supervisory controllers per lane (``None`` = built-in PI only),
    #: with their own sensor taps and reading noise.
    controllers: Tuple[object, ...]
    controller_matrix: Tuple[np.ndarray, ...]
    controller_noise: Tuple[np.ndarray, ...]
    controlled: Tuple[int, ...]  # lanes that carry a controller
    diffuser_idx: List[np.ndarray]  # shared within the cohort
    front_full_flow: np.ndarray  # (B,)
    thermostat_draft: np.ndarray  # (B,)
    blend: np.ndarray  # (B, V, 2)
    setpoint: np.ndarray  # (B, V)
    kp: np.ndarray  # (B, V)
    ki: np.ndarray  # (B, V)
    integrator_decay: float  # shared: exp(-dt/7200) at the batch's dt
    integrator_limit: np.ndarray  # (B, V)
    integrator_floor: np.ndarray  # (B, V), the negated limit
    standby_flow_cmd: np.ndarray  # (B, V)
    vav_min_flow: np.ndarray  # (B, V)
    vav_max_flow: np.ndarray  # (B, V)
    vav_flow_span: np.ndarray  # (B, V)
    cold_deck_temp: np.ndarray  # (B, V)
    reheat_max_temp: np.ndarray  # (B, 1)
    alpha_flow: np.ndarray  # (B, V)
    alpha_temp: np.ndarray  # (B, V)
    #: Stacked RC network (the per-building matrices of RCNetwork).
    mixing: np.ndarray  # (B, Z, Z)
    infiltration: np.ndarray  # (B, Z)
    exterior: np.ndarray  # (B, Z)
    mass_coupling: np.ndarray  # (B, Z)
    ground_conductance: np.ndarray  # (B, Z)
    ground_temp: np.ndarray  # (B, Z)
    zone_capacitance: np.ndarray  # (B, Z)
    mass_capacitance: np.ndarray  # (B, Z)
    fractions_t: np.ndarray  # (B, Z, D) diffuser->zone flow fractions, transposed
    substeps: int
    substep_h: float
    #: Room balances, with their exogenous terms evaluated per step.
    room_volume: np.ndarray  # (B,)
    air_mass: np.ndarray  # (B,)
    co2_generation_ppm: np.ndarray  # (B, N)
    fresh_outdoor_ratio: np.ndarray  # (B, N) fresh fraction x outdoor humidity ratio
    moisture_generation: np.ndarray  # (B, N)
    coil_saturation_fraction: float


@dataclass
class BatchState:
    """Mutable cross-step state of one batch, leading axis = building."""

    zone_temps: np.ndarray  # (B, Z)
    mass_temps: np.ndarray  # (B, Z)
    vav_flows: np.ndarray  # (B, V)
    vav_discharge: np.ndarray  # (B, V)
    pi_integrators: np.ndarray  # (B, V)
    co2_ppm: np.ndarray  # (B,)
    moisture_ratio: np.ndarray  # (B,)
    diffuser_flows: np.ndarray  # (B, D)
    diffuser_temps: np.ndarray  # (B, D)
    # -- per-step scratch --
    tstat_reading: Optional[np.ndarray] = None  # (B, 2)
    total_flow: Optional[np.ndarray] = None  # (B,)
    zone_flow_kgs: Optional[np.ndarray] = None  # (B, Z)
    zone_supply_temp_c: Optional[np.ndarray] = None  # (B, Z)
    zone_heat_w: Optional[np.ndarray] = None  # (B, Z)
    #: Column views for the stacked matrix-vector taps; the state arrays
    #: they view are updated in place, so the views stay current.
    zone_column: np.ndarray = field(init=False, repr=False)  # (B, Z, 1)
    diffuser_flow_column: np.ndarray = field(init=False, repr=False)  # (B, D, 1)

    def __post_init__(self) -> None:
        self.zone_column = self.zone_temps[:, :, None]
        self.diffuser_flow_column = self.diffuser_flows[:, :, None]


@dataclass
class BatchChunk:
    """One slab of batched trajectory; ``building(b)`` is lane ``b``'s chunk."""

    index: int
    start: int
    stop: int
    zone_temps: np.ndarray  # (B, rows, Z)
    mass_temps: np.ndarray
    vav_flows: np.ndarray  # (B, rows, V)
    vav_temps: np.ndarray
    co2: np.ndarray  # (B, rows)
    humidity_ratio: np.ndarray
    thermostat_readings: np.ndarray  # (B, rows, 2)
    thermostat_true: np.ndarray
    occupancy: np.ndarray  # (B, rows)
    zone_occupancy: np.ndarray  # (B, rows, Z)
    lighting: np.ndarray  # (B, rows)
    ambient: np.ndarray  # (B, rows)

    @classmethod
    def allocate(cls, index: int, start: int, stop: int, plan: BatchPlan) -> "BatchChunk":
        """Preallocate batched buffers and slice the exogenous inputs."""
        rows = stop - start
        b = plan.n_buildings
        return cls(
            index=index,
            start=start,
            stop=stop,
            zone_temps=np.empty((b, rows, plan.n_zones)),
            mass_temps=np.empty((b, rows, plan.n_zones)),
            vav_flows=np.empty((b, rows, plan.n_vavs)),
            vav_temps=np.empty((b, rows, plan.n_vavs)),
            co2=np.empty((b, rows)),
            humidity_ratio=np.empty((b, rows)),
            thermostat_readings=np.empty((b, rows, 2)),
            thermostat_true=np.empty((b, rows, 2)),
            occupancy=plan.occupancy_total[:, start:stop],
            zone_occupancy=plan.zone_occupancy[:, start:stop],
            lighting=plan.lighting[:, start:stop],
            ambient=plan.ambient[:, start:stop],
        )

    def building(self, b: int) -> SimulationChunk:
        """Lane ``b``'s slab as a solo chunk (views, no copies)."""
        return SimulationChunk(
            index=self.index,
            start=self.start,
            stop=self.stop,
            zone_temps=self.zone_temps[b],
            mass_temps=self.mass_temps[b],
            vav_flows=self.vav_flows[b],
            vav_temps=self.vav_temps[b],
            co2=self.co2[b],
            humidity_ratio=self.humidity_ratio[b],
            thermostat_readings=self.thermostat_readings[b],
            thermostat_true=self.thermostat_true[b],
            occupancy=self.occupancy[b],
            zone_occupancy=self.zone_occupancy[b],
            lighting=self.lighting[b],
            ambient=self.ambient[b],
        )


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _scalar(value: float) -> np.ndarray:
    """``value`` as a 0-d float64 array.

    Numpy converts a Python float operand on every ufunc call, which
    costs about a third of a small-array operation; a 0-d array skips
    that.  The value, and so every result, is the same float64.
    """
    return np.array(value, dtype=float)


_ZERO, _ONE = _scalar(0.0), _scalar(1.0)
_ZERO_FLOW_M3S = _scalar(_ZERO_FLOW)
_SECONDS_PER_HOUR = _scalar(3600.0)
_AIR_CP, _AIR_DENSITY = _scalar(AIR_CP), _scalar(AIR_DENSITY)
_PSAT_SCALE, _PSAT_SLOPE, _PSAT_OFFSET = _scalar(610.94), _scalar(17.625), _scalar(243.04)
_EPSILON, _ATMOSPHERIC_PRESSURE = _scalar(EPSILON), _scalar(ATMOSPHERIC_PRESSURE)

_add_reduce = np.add.reduce
_min_reduce = np.minimum.reduce


def _sat_ratio(temp_c: np.ndarray) -> np.ndarray:
    """Vectorized saturation humidity ratio (mirrors the scalar helper)."""
    psat = _PSAT_SCALE * np.exp(_PSAT_SLOPE * temp_c / (temp_c + _PSAT_OFFSET))
    return _EPSILON * psat / (_ATMOSPHERIC_PRESSURE - psat)


def _clip(values: np.ndarray, low, high) -> np.ndarray:
    """``np.clip`` without its Python-level dispatch.

    ``clip(x, lo, hi)`` is ``min(max(x, lo), hi)`` elementwise and both
    propagate NaN, so the two return equal values on every input (they
    can disagree only on the sign of a zero result).
    """
    return np.minimum(np.maximum(values, low), high)


def _mean(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Mean over the last axis of length ``count`` (a 0-d array), as
    ``ndarray.mean`` computes it (sum, then divide by the count) without
    its Python-level dispatch."""
    return _add_reduce(values, -1) / count


def _flow_weighted(flows: np.ndarray, temps: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Flow-weighted mean temperature over the last axis.

    Where the total flow is zero there are no weights, so the plain mean
    stands in; it is only evaluated on steps where some entry needs it.
    """
    dots = np.matmul(flows[..., None, :], temps[..., :, None])[..., 0, 0]
    weighted = dots / total
    if _min_reduce(total, None) > _ZERO_FLOW:
        return weighted
    return np.where(total > _ZERO_FLOW_M3S, weighted, _mean(temps, _scalar(temps.shape[-1])))


class ThermostatTap:
    """Sample the true field at the wall thermostats (plume-biased)."""

    def __init__(self, plan: BatchPlan) -> None:
        self.plan = plan
        # The thermostats hang in the front (first) diffuser's plume.
        self.front = _gather(plan.diffuser_idx[0])
        self.n_front = _scalar(plan.diffuser_idx[0].size)

    def step(self, state: BatchState, k: int, row: int, chunk: BatchChunk) -> None:
        """Produce this step's thermostat readings into ``state``/``chunk``."""
        plan = self.plan
        tstat = np.matmul(plan.tstat_matrix, state.zone_column)[:, :, 0]
        front_flow = _add_reduce(state.vav_flows[:, self.front], 1)
        front_discharge = _mean(state.vav_discharge[:, self.front], self.n_front)
        plume = plan.thermostat_draft * np.minimum(front_flow / plan.front_full_flow, _ONE)
        tstat = (_ONE - plume)[:, None] * tstat + (plume * front_discharge)[:, None]
        chunk.thermostat_true[:, row] = tstat
        tstat = tstat + plan.tstat_noise[:, k]
        chunk.thermostat_readings[:, row] = tstat
        state.tstat_reading = tstat


class PlantStep:
    """Advance the HVAC plant: schedule, PI loops, overrides, VAV lags.

    Each lane takes one of three branches per step: PI control when
    occupied, the supervisory controller's flow commands when occupied
    and commanded, standby when unoccupied.  Steps where every lane
    takes the same branch compute only that branch; otherwise each
    needed branch is evaluated for every lane and the outcome is
    ``np.where``-selected, so the discarded lanes' arithmetic cannot
    leak into a kept lane.
    """

    def __init__(self, plan: BatchPlan) -> None:
        self.plan = plan
        self.dt = _scalar(plan.dt)
        self.integrator_decay = _scalar(plan.integrator_decay)
        self.n_zones = _scalar(plan.n_zones)

    def _pi_branch(self, state: BatchState) -> Tuple[np.ndarray, np.ndarray]:
        """PI control for every lane: (integrators, flow setpoint)."""
        plan = self.plan
        integrators = state.pi_integrators
        controlling = np.matmul(plan.blend, state.tstat_reading[:, :, None])[:, :, 0]
        errors = controlling - plan.setpoint
        proportional = plan.kp * errors
        demand_now = proportional + plan.ki * integrators
        saturated_same_sign = ((demand_now >= _ONE) & (errors > _ZERO)) | (
            (demand_now <= _ZERO) & (errors < _ZERO)
        )
        decayed = integrators * self.integrator_decay
        charging = decayed + errors * self.dt / _SECONDS_PER_HOUR
        charged = np.where(saturated_same_sign, decayed, charging)
        charged = _clip(charged, plan.integrator_floor, plan.integrator_limit)
        cooling = _clip(proportional + plan.ki * charged, _ZERO, _ONE)
        flow_cmd = plan.vav_min_flow + cooling * plan.vav_flow_span
        return charged, _clip(flow_cmd, plan.vav_min_flow, plan.vav_max_flow)

    def _standby_temp(self, state: BatchState) -> np.ndarray:
        """Standby discharge setpoint: the clipped zone-mean return temp."""
        plan = self.plan
        return_temp_c = _mean(state.zone_temps, self.n_zones)[:, None]
        return _clip(return_temp_c, plan.cold_deck_temp[:, :1], plan.reheat_max_temp)

    def _commands(self, state: BatchState, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Ask each lane's controller: (commanded lanes, clipped flows)."""
        plan = self.plan
        commanded = np.zeros(plan.n_buildings, dtype=bool)
        commands = np.zeros((plan.n_buildings, plan.n_vavs))
        hour = float(plan.hours[k])
        for b in plan.controlled:
            readings = plan.controller_matrix[b] @ state.zone_temps[b] + plan.controller_noise[b][k]
            flows = plan.controllers[b].decide(k, hour, readings, plan.dt)
            if flows is None:
                continue  # the built-in PI runs this step
            flows = np.asarray(flows, dtype=float)
            if flows.shape != (plan.n_vavs,):
                raise ConfigurationError(
                    f"expected {plan.n_vavs} flow commands, got shape {flows.shape}"
                )
            commanded[b] = True
            commands[b] = flows
        return commanded, _clip(commands, plan.vav_min_flow, plan.vav_max_flow)

    def step(self, state: BatchState, k: int, row: int, chunk: BatchChunk) -> None:
        """Advance flows/discharge temperatures by one outer step."""
        plan = self.plan
        branch = plan.schedule_mode[k]
        occupied = plan.occupied[:, k, None]
        overriding = None
        if plan.controlled:
            commanded, commands = self._commands(state, k)
            overriding = occupied & commanded[:, None]
            if overriding.all():
                branch = _OVERRIDE
            elif overriding.any():
                branch = _MIXED
            else:
                overriding = None
        if branch == _OVERRIDE:
            state.pi_integrators = np.zeros_like(state.pi_integrators)
            flow_setpoint = commands
            temp_setpoint = plan.cold_deck_temp
        elif branch == _NONE_OCCUPIED:
            state.pi_integrators = np.zeros_like(state.pi_integrators)
            flow_setpoint = plan.standby_flow_cmd
            temp_setpoint = self._standby_temp(state)
        elif branch == _ALL_OCCUPIED:
            state.pi_integrators, flow_setpoint = self._pi_branch(state)
            temp_setpoint = plan.cold_deck_temp
        else:
            pi_integrators, pi_flow = self._pi_branch(state)
            pi_lanes = occupied if overriding is None else occupied & ~overriding
            state.pi_integrators = np.where(pi_lanes, pi_integrators, _ZERO)
            flow_setpoint = np.where(occupied, pi_flow, plan.standby_flow_cmd)
            if overriding is not None:
                flow_setpoint = np.where(overriding, commands, flow_setpoint)
            temp_setpoint = np.where(occupied, plan.cold_deck_temp, self._standby_temp(state))
        flows = state.vav_flows
        discharge = state.vav_discharge
        flows += plan.alpha_flow * (flow_setpoint - flows)
        discharge += plan.alpha_temp * (temp_setpoint - discharge)
        chunk.vav_flows[:, row] = flows
        chunk.vav_temps[:, row] = discharge


class DiffuserMix:
    """Aggregate VAV flows/temperatures onto their supply diffusers."""

    def __init__(self, plan: BatchPlan) -> None:
        self.plan = plan
        # A diffuser with no feeding VAVs supplies nothing at a finite
        # temperature (0 flow, 0 °C): its columns keep their zero
        # initial state and are skipped.
        self.fed = [(d, _gather(idx)) for d, idx in enumerate(plan.diffuser_idx) if idx.size]
        self.n_diffusers = _scalar(len(plan.diffuser_idx))

    def step(self, state: BatchState, k: int, row: int, chunk: BatchChunk) -> None:
        """Mix each diffuser's feeding VAVs and project onto zones."""
        plan = self.plan
        flows = state.vav_flows
        discharge = state.vav_discharge
        diffuser_flows = state.diffuser_flows
        diffuser_temps = state.diffuser_temps
        for d, gather in self.fed:
            fed = flows[:, gather]
            f = _add_reduce(fed, 1)
            diffuser_flows[:, d] = f
            diffuser_temps[:, d] = _flow_weighted(fed, discharge[:, gather], f)
        # Supply projection: the batched RCNetwork.supply_to_zones.  A
        # zone that receives no air gets the mean diffuser temperature
        # (irrelevant, its flow is 0), evaluated only on steps that have
        # such a zone.
        zone_volume_flow = np.matmul(plan.fractions_t, state.diffuser_flow_column)[:, :, 0]
        weighted_temp = np.matmul(
            plan.fractions_t, (diffuser_flows * diffuser_temps)[:, :, None]
        )[:, :, 0]
        supply_temp_c = weighted_temp / zone_volume_flow
        if not _min_reduce(zone_volume_flow, None) > _ZERO_FLOW:
            supply_temp_c = np.where(
                zone_volume_flow > _ZERO_FLOW_M3S,
                supply_temp_c,
                _mean(diffuser_temps, self.n_diffusers)[:, None],
            )
        state.zone_supply_temp_c = supply_temp_c
        state.zone_flow_kgs = _AIR_DENSITY * zone_volume_flow
        state.zone_heat_w = plan.zone_heat_w[:, k]
        state.total_flow = _add_reduce(diffuser_flows, 1)


class ThermalIntegrate:
    """Sub-stepped explicit-Euler integration of the RC network."""

    def __init__(self, plan: BatchPlan) -> None:
        self.plan = plan
        self.substep_h = _scalar(plan.substep_h)

    def step(self, state: BatchState, k: int, row: int, chunk: BatchChunk) -> None:
        """Record the pre-step state, then advance it by ``dt`` seconds."""
        plan = self.plan
        z = state.zone_temps
        m = state.mass_temps
        chunk.zone_temps[:, row] = z
        chunk.mass_temps[:, row] = m
        ambient = plan.ambient[:, k, None]
        h = self.substep_h
        flow_cp = state.zone_flow_kgs * _AIR_CP
        supply_t_c = state.zone_supply_temp_c
        heat_w = state.zone_heat_w
        mass_coupling = plan.mass_coupling
        for _ in range(plan.substeps):
            q_air = (
                np.matmul(plan.mixing, state.zone_column)[:, :, 0]
                + mass_coupling * (m - z)
                + plan.infiltration * (ambient - z)
                + flow_cp * (supply_t_c - z)
                + heat_w
            )
            q_mass = (
                mass_coupling * (z - m)
                + plan.exterior * (ambient - m)
                + plan.ground_conductance * (plan.ground_temp - m)
            )
            z += h * (q_air / plan.zone_capacitance)
            m += h * (q_mass / plan.mass_capacitance)
        # One reduction screens both states: a NaN or Inf anywhere makes
        # the sum non-finite.
        if not np.isfinite(_add_reduce(z + m, None)):
            finite = np.isfinite(z).all(axis=1) & np.isfinite(m).all(axis=1)
            bad = np.flatnonzero(~finite).tolist()
            raise SimulationError(
                f"thermal state diverged at step {k} (chunk {chunk.index}) "
                f"in building(s) {bad}; the configuration is outside the stable regime"
            )


class CO2Balance:
    """Well-mixed CO₂ balance on the fresh-air fraction of supply flow."""

    def __init__(self, plan: BatchPlan) -> None:
        self.plan = plan
        self.dt = _scalar(plan.dt)
        self.fresh_fraction = _scalar(FRESH_AIR_FRACTION)
        self.outdoor_ppm = _scalar(OUTDOOR_CO2_PPM)

    def step(self, state: BatchState, k: int, row: int, chunk: BatchChunk) -> None:
        """Advance the CO₂ state by one outer step."""
        plan = self.plan
        exchange = self.fresh_fraction * state.total_flow / plan.room_volume
        co2 = state.co2_ppm
        generation_ppm = plan.co2_generation_ppm[:, k]
        co2 = co2 + self.dt * (generation_ppm - exchange * (co2 - self.outdoor_ppm))
        state.co2_ppm = co2
        chunk.co2[:, row] = co2


class MoistureStep:
    """Well-mixed moisture balance (the cooling coil dehumidifies)."""

    def __init__(self, plan: BatchPlan) -> None:
        self.plan = plan
        self.dt = _scalar(plan.dt)
        self.recirculated = _scalar(1.0 - FRESH_AIR_FRACTION)
        self.coil_saturation_fraction = _scalar(plan.coil_saturation_fraction)
        self.air_density = _scalar(MOISTURE_AIR_DENSITY)

    def step(self, state: BatchState, k: int, row: int, chunk: BatchChunk) -> None:
        """Advance the humidity-ratio state by one outer step."""
        plan = self.plan
        total_flow = state.total_flow
        mean_discharge = _flow_weighted(state.diffuser_flows, state.diffuser_temps, total_flow)
        ratio = state.moisture_ratio
        w_mix = self.recirculated * ratio + plan.fresh_outdoor_ratio[:, k]
        w_coil_cap = self.coil_saturation_fraction * _sat_ratio(mean_discharge)
        w_supply = np.minimum(w_mix, w_coil_cap)
        exchange = total_flow * self.air_density / plan.air_mass
        generation = plan.moisture_generation[:, k]
        ratio = ratio + self.dt * (exchange * (w_supply - ratio) + generation)
        ratio = np.maximum(ratio, _ZERO)
        state.moisture_ratio = ratio
        chunk.humidity_ratio[:, row] = ratio


# ---------------------------------------------------------------------------
# Plan stacking and the step loop
# ---------------------------------------------------------------------------


def stack_plans(plans: Sequence[KernelPlan]) -> BatchPlan:
    """Stack same-shape per-building plans into one :class:`BatchPlan`."""
    p0 = plans[0]
    shape_v = (len(plans), p0.n_vavs)
    shape_z = (len(plans), p0.n_zones)

    def stack(attr: str) -> np.ndarray:
        return np.stack([getattr(p, attr) for p in plans])

    def row(values) -> np.ndarray:
        return np.array(list(values), dtype=float)

    def lanes(values, shape) -> np.ndarray:
        """Per-lane scalars broadcast across a lane's VAVs or zones."""
        return np.ascontiguousarray(np.broadcast_to(row(values)[:, None], shape))

    moisture = MoistureConfig()
    occupied = stack("occupied")
    schedule_mode = np.where(
        occupied.all(axis=0), _ALL_OCCUPIED, np.where(occupied.any(axis=0), _MIXED, _NONE_OCCUPIED)
    ).tolist()
    ambient = stack("ambient")
    occupancy_total = stack("occupancy_total")
    room_volume = row(p.room_volume for p in plans)
    air_mass = MOISTURE_AIR_DENSITY * room_volume
    w_out = moisture.outdoor_rh / 100.0 * _sat_ratio(ambient)
    controllers = tuple(p.supervisory_controller for p in plans)
    networks = [p.network for p in plans]
    return BatchPlan(
        n_buildings=len(plans),
        n_steps=p0.n_steps,
        dt=p0.dt,
        n_zones=p0.n_zones,
        n_vavs=p0.n_vavs,
        hours=p0.hours,
        occupied=occupied,
        schedule_mode=schedule_mode,
        ambient=ambient,
        occupancy_total=occupancy_total,
        zone_occupancy=stack("zone_occupancy"),
        lighting=stack("lighting"),
        zone_heat_w=stack("zone_heat_w"),
        tstat_matrix=stack("tstat_matrix"),
        tstat_noise=stack("tstat_noise"),
        controllers=controllers,
        controller_matrix=tuple(p.controller_matrix for p in plans),
        controller_noise=tuple(p.controller_noise for p in plans),
        controlled=tuple(b for b, c in enumerate(controllers) if c is not None),
        diffuser_idx=p0.diffuser_idx,
        front_full_flow=row(p.front_full_flow for p in plans),
        thermostat_draft=row(p.thermostat_draft for p in plans),
        blend=stack("blend"),
        setpoint=lanes((p.setpoint for p in plans), shape_v),
        kp=lanes((p.kp for p in plans), shape_v),
        ki=lanes((p.ki for p in plans), shape_v),
        integrator_decay=p0.integrator_decay,
        integrator_limit=lanes((p.integrator_limit for p in plans), shape_v),
        integrator_floor=lanes((-p.integrator_limit for p in plans), shape_v),
        standby_flow_cmd=lanes((p.standby_flow_cmd for p in plans), shape_v),
        vav_min_flow=lanes((p.vav_min_flow for p in plans), shape_v),
        vav_max_flow=lanes((p.vav_max_flow for p in plans), shape_v),
        vav_flow_span=lanes((p.vav_flow_span for p in plans), shape_v),
        cold_deck_temp=lanes((p.cold_deck_temp for p in plans), shape_v),
        reheat_max_temp=row(p.reheat_max_temp for p in plans)[:, None],
        alpha_flow=lanes((p.alpha_flow for p in plans), shape_v),
        alpha_temp=lanes((p.alpha_temp for p in plans), shape_v),
        mixing=np.stack([n._mixing for n in networks]),
        infiltration=np.stack([n._infiltration for n in networks]),
        exterior=np.stack([n._exterior for n in networks]),
        mass_coupling=lanes((n.config.mass_coupling for n in networks), shape_z),
        ground_conductance=lanes((n.config.ground_conductance for n in networks), shape_z),
        ground_temp=lanes((n.config.ground_temp for n in networks), shape_z),
        zone_capacitance=lanes((n.config.zone_capacitance for n in networks), shape_z),
        mass_capacitance=lanes((n.config.mass_capacitance for n in networks), shape_z),
        fractions_t=np.stack([n._diffuser_fractions.T for n in networks]),
        substeps=p0.substeps,
        substep_h=p0.substep_h,
        room_volume=room_volume,
        air_mass=air_mass,
        co2_generation_ppm=occupancy_total * CO2_PER_PERSON / room_volume[:, None] * 1e6,
        fresh_outdoor_ratio=FRESH_AIR_FRACTION * w_out,
        moisture_generation=occupancy_total * moisture.occupant_moisture / air_mass[:, None],
        coil_saturation_fraction=moisture.coil_saturation_fraction,
    )


def _initial_state(plan: BatchPlan, simulators: Sequence[object]) -> BatchState:
    """Reset each lane's plant and stack the cross-step state."""
    zone, mass, flows, discharge, ratios = [], [], [], [], []
    initial_rh = MoistureConfig().initial_rh
    for sim in simulators:
        sim.plant.reset()
        z, m = sim.network.initial_state(sim.config.initial_temp)
        zone.append(z)
        mass.append(m)
        flows.append(sim.plant.flows())
        discharge.append(sim.plant.discharge_temps())
        ratios.append(humidity_ratio_from_rh(initial_rh, sim.config.initial_temp))
    b = len(simulators)
    n_diffusers = len(plan.diffuser_idx)
    return BatchState(
        zone_temps=np.stack(zone),
        mass_temps=np.stack(mass),
        vav_flows=np.stack(flows),
        vav_discharge=np.stack(discharge),
        pi_integrators=np.zeros((b, plan.n_vavs)),
        co2_ppm=np.full(b, OUTDOOR_CO2_PPM),
        moisture_ratio=np.array(ratios, dtype=float),
        diffuser_flows=np.zeros((b, n_diffusers)),
        diffuser_temps=np.zeros((b, n_diffusers)),
    )


def _write_back(state: BatchState, simulators: Sequence[object]) -> None:
    """Leave each lane's plant objects at the final VAV/PI state, exactly
    as the reference loop does."""
    for b, sim in enumerate(simulators):
        for i, vav in enumerate(sim.plant.vavs):
            vav._flow = float(state.vav_flows[b, i])
            vav._discharge_temp = float(state.vav_discharge[b, i])
        sim.plant._integrators[:] = state.pi_integrators[b]


def integrate(
    plan: BatchPlan,
    simulators: Sequence[object],
    chunk_steps: Optional[int] = None,
    label: str = "chunk",
) -> Iterator[BatchChunk]:
    """Run the kernel pipeline over a batch, yielding :class:`BatchChunk` slabs.

    ``simulators`` are the lanes' :class:`AuditoriumSimulator` objects:
    their plants are reset before the first step and left at the final
    state after the last.  ``chunk_steps`` is the number of outer steps
    per chunk (default: the whole trace as one chunk); the state threads
    across chunk boundaries, so any chunking yields the same trace.
    Integrator-health contracts run per chunk, naming ``label``, the
    chunk index and its step range.
    """
    n = plan.n_steps
    size = n if chunk_steps is None else int(chunk_steps)
    if size < 1:
        raise ConfigurationError("chunk_steps must be at least 1")
    state = _initial_state(plan, simulators)
    kernels = (
        ThermostatTap(plan),
        PlantStep(plan),
        DiffuserMix(plan),
        ThermalIntegrate(plan),
        CO2Balance(plan),
        MoistureStep(plan),
    )
    steps = [kernel.step for kernel in kernels]
    for index, start in enumerate(range(0, n, size)):
        stop = min(start + size, n)
        chunk = BatchChunk.allocate(index, start, stop, plan)
        # Zero-flow lanes divide 0/0 inside np.where-selected branches
        # (the selected value is always finite); one errstate over the
        # step loop avoids a seterr round-trip per kernel call.
        # Divergence is still caught by the explicit isfinite gate in
        # ThermalIntegrate and the per-chunk contracts below.
        with np.errstate(invalid="ignore", divide="ignore"):
            for k in range(start, stop):
                r = k - start
                for kernel_step in steps:
                    kernel_step(state, k, r, chunk)
        where = f"{label} {index}, steps {start}:{stop}"
        ensure_finite(chunk.zone_temps, f"simulated zone temperatures ({where})")
        ensure_finite(chunk.mass_temps, f"simulated mass temperatures ({where})")
        ensure_unit_range(
            chunk.zone_temps, -40.0, 70.0, f"simulated zone temperatures (°C) ({where})"
        )
        yield chunk
    _write_back(state, simulators)
