"""Fleet batching: many buildings integrated in one vectorized pass.

The paper identifies one auditorium; this module adds the building
axis:

* a :class:`BuildingSpec` — one building's geometry, HVAC plant, RC
  parameters and seed, with :func:`build_fleet` drawing per-building
  variation from a seeded spec distribution (:class:`FleetConfig`),
* a :class:`FleetSimulator` — buildings grouped into *cohorts* of
  identical array shape, ``(n_zones, n_vavs, substeps, diffuser
  wiring)``, each cohort stacked into one
  :class:`~repro.simulation.kernels.BatchPlan` and integrated in one
  pass of the batched kernel engine (:mod:`repro.simulation.kernels`).

RC parameters, calendars, noise, setpoints and supervisory controllers
are free to differ within a cohort.  A solo
:meth:`AuditoriumSimulator.run` is the same engine at a batch of one,
so running building *i* in its cohort is ``np.array_equal`` to running
its spec alone, and both match the reference loop
(:meth:`AuditoriumSimulator.run_loop`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import rng as rng_mod
from repro.errors import ConfigurationError
from repro.geometry.auditorium import (
    Auditorium,
    Diffuser,
    Point,
    _default_seats,
    default_auditorium,
)
from repro.geometry.layout import THERMOSTAT_IDS
from repro.simulation.hvac import HVACConfig, HVACSchedule
from repro.simulation.kernels import (
    BatchChunk,
    KernelPlan,
    SimulationChunk,
    integrate,
    stack_plans,
)
from repro.simulation.rc_network import RCNetworkConfig
from repro.simulation.simulator import (
    AuditoriumSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.simulation.vav import VAVConfig

__all__ = [
    "BuildingSpec",
    "FleetConfig",
    "FleetResult",
    "FleetSimulator",
    "build_fleet",
    "seed_fleet",
]


# ---------------------------------------------------------------------------
# Building specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildingSpec:
    """One fleet member: geometry, plant and simulation configuration.

    A spec is self-contained: :meth:`simulator` builds the exact solo
    :class:`AuditoriumSimulator` the batched pass must reproduce, so the
    parity contract is checkable per building.
    """

    name: str
    width: float = 20.0
    depth: float = 16.0
    height: float = 6.0
    seat_rows: int = 9
    seat_columns: int = 10
    n_vavs: int = 4
    #: 1-based VAV ids feeding each supply diffuser, front to back.
    diffuser_wiring: Tuple[Tuple[int, ...], ...] = ((1, 2), (3, 4))
    #: Room depth of each diffuser, metres (aligned with the wiring).
    diffuser_ys: Tuple[float, ...] = (1.0, 5.5)
    diffuser_reach: float = 3.0
    #: Wall-thermostat mounting: height, inset from the side walls and
    #: fractional room depth (the default matches the paper's layout).
    thermostat_height: float = 1.4
    thermostat_inset: float = 0.3
    thermostat_depth_fraction: float = 0.15
    #: When set, :meth:`auditorium` returns the canonical paper room and
    #: the thermostats come from the default sensor layout, so the spec
    #: aliases exactly onto the solo synthetic path.
    use_default_geometry: bool = False
    simulation: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("building spec needs a name")
        if len(self.diffuser_wiring) != len(self.diffuser_ys):
            raise ConfigurationError("diffuser_wiring and diffuser_ys must align")
        if not self.diffuser_wiring:
            raise ConfigurationError("a building needs at least one diffuser")
        for ids in self.diffuser_wiring:
            for vav_id in ids:
                if not 1 <= vav_id <= self.n_vavs:
                    raise ConfigurationError(
                        f"diffuser wiring references VAV {vav_id}, "
                        f"but {self.name!r} has {self.n_vavs}"
                    )
        if self.simulation.hvac.n_vavs != self.n_vavs:
            raise ConfigurationError(
                f"{self.name!r}: HVAC plant drives {self.simulation.hvac.n_vavs} "
                f"VAVs but the spec declares {self.n_vavs}"
            )

    @property
    def capacity(self) -> int:
        """Seat count of the room."""
        return self.seat_rows * self.seat_columns

    def auditorium(self) -> Auditorium:
        """The room geometry this spec describes."""
        if self.use_default_geometry:
            return default_auditorium()
        diffusers = tuple(
            Diffuser(
                name=f"outlet-{i + 1}",
                y=float(y),
                vav_ids=tuple(int(v) for v in ids),
                reach=self.diffuser_reach,
            )
            for i, (y, ids) in enumerate(zip(self.diffuser_ys, self.diffuser_wiring))
        )
        seats = _default_seats(
            self.width,
            self.depth,
            rows=self.seat_rows,
            columns=self.seat_columns,
            first_row_y=0.25 * self.depth,
            last_row_y=0.875 * self.depth,
            aisle_margin=0.1 * self.width,
        )
        return Auditorium(
            width=self.width,
            depth=self.depth,
            height=self.height,
            capacity=self.capacity,
            seats=seats,
            diffusers=diffusers,
            n_vavs=self.n_vavs,
        )

    def thermostat_positions(self) -> Optional[Dict[int, Point]]:
        """Wall-thermostat positions, or ``None`` for the default layout."""
        if self.use_default_geometry:
            return None
        y = self.thermostat_depth_fraction * self.depth
        z = self.thermostat_height
        return {
            THERMOSTAT_IDS[0]: Point(self.thermostat_inset, y, z),
            THERMOSTAT_IDS[1]: Point(self.width - self.thermostat_inset, y, z),
        }

    def simulator(self) -> AuditoriumSimulator:
        """The solo simulator the batched pass must be bit-identical to."""
        return AuditoriumSimulator(
            self.simulation,
            auditorium=self.auditorium(),
            thermostat_positions=self.thermostat_positions(),
        )

    @classmethod
    def paper_default(
        cls, simulation: Optional[SimulationConfig] = None, name: str = "brauer-hall"
    ) -> "BuildingSpec":
        """The canonical paper auditorium as a fleet member."""
        return cls(
            name=name,
            width=20.0,
            depth=16.0,
            height=6.0,
            seat_rows=9,
            seat_columns=10,
            n_vavs=4,
            diffuser_wiring=((1, 2), (3, 4)),
            diffuser_ys=(1.0, 5.5),
            diffuser_reach=3.0,
            use_default_geometry=True,
            simulation=simulation or SimulationConfig(),
        )


# ---------------------------------------------------------------------------
# Fleet spec distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetConfig:
    """Seeded distribution over building specs (:func:`build_fleet`)."""

    n_buildings: int = 8
    days: float = 3.0
    dt: float = 60.0
    start: datetime = field(default_factory=lambda: datetime(2013, 1, 31))
    seed: int = rng_mod.DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.n_buildings < 1:
            raise ConfigurationError("a fleet needs at least one building")


#: Campus-flavoured name pool for generated fleet members.
_NAME_POOL = (
    "brauer",
    "whitaker",
    "lopata",
    "cupples",
    "jolley",
    "urbauer",
    "bryan",
    "eads",
    "rudolph",
    "green",
)
#: Occupied-schedule variants (on hour, off hour).
_SCHEDULE_POOL = ((6.0, 21.0), (7.0, 21.0), (6.0, 22.0), (7.0, 22.0))
#: Thermostat-blend weights a VAV may put on the first thermostat.
_BLEND_POOL = (0.0, 0.25, 0.5, 0.75, 1.0)
#: VAV-count variants; the front diffuser takes the first half.
_VAV_POOL = (2, 4, 6)


def _wiring_for(n_vavs: int) -> Tuple[Tuple[int, ...], ...]:
    """Two-diffuser wiring: front gets VAVs ``1..v/2``, mid the rest."""
    half = n_vavs // 2
    return (
        tuple(range(1, half + 1)),
        tuple(range(half + 1, n_vavs + 1)),
    )


def build_fleet(config: Optional[FleetConfig] = None) -> Tuple[BuildingSpec, ...]:
    """Draw a fleet of building specs from the seeded distribution.

    Each building's draws come from an independent derived stream
    (``derive(seed, "fleet-building", index=i)``), so fleets of
    different sizes share their common prefix and adding a building
    never perturbs the others.  The grid resolution is shared (all
    fleet members have the same zone count) so buildings batch into a
    handful of cohorts rather than one cohort per building.
    """
    config = config or FleetConfig()
    specs: List[BuildingSpec] = []
    rc_base = RCNetworkConfig()
    hvac_base = HVACConfig()
    vav_base = VAVConfig()
    for i in range(config.n_buildings):
        gen = rng_mod.derive(config.seed, "fleet-building", index=i)
        name = f"{_NAME_POOL[int(gen.integers(0, len(_NAME_POOL)))]}-{i:02d}"
        width = float(gen.uniform(14.0, 26.0))
        depth = float(gen.uniform(12.0, 20.0))
        height = float(gen.uniform(4.5, 7.0))
        rows = int(gen.integers(6, 11))
        columns = int(gen.integers(8, 13))
        n_vavs = int(_VAV_POOL[int(gen.integers(0, len(_VAV_POOL)))])
        front_y = float(gen.uniform(0.04, 0.10)) * depth
        mid_y = float(gen.uniform(0.28, 0.40)) * depth
        reach = float(gen.uniform(2.5, 3.5))
        rc = RCNetworkConfig(
            zone_capacitance=rc_base.zone_capacitance * float(gen.uniform(1.05, 1.3)),
            mixing_conductance=rc_base.mixing_conductance * float(gen.uniform(0.85, 1.0)),
            mass_coupling=rc_base.mass_coupling * float(gen.uniform(0.8, 1.2)),
            mass_capacitance=rc_base.mass_capacitance * float(gen.uniform(0.8, 1.2)),
            ground_temp=rc_base.ground_temp + float(gen.uniform(-0.5, 0.5)),
        )
        on_hour, off_hour = _SCHEDULE_POOL[int(gen.integers(0, len(_SCHEDULE_POOL)))]
        blend_draws = gen.integers(0, len(_BLEND_POOL), size=n_vavs)
        blend = tuple((float(_BLEND_POOL[int(j)]), 1.0 - float(_BLEND_POOL[int(j)])) for j in blend_draws)
        hvac = HVACConfig(
            setpoint=hvac_base.setpoint + float(gen.uniform(-0.8, 0.8)),
            kp=hvac_base.kp * float(gen.uniform(0.8, 1.2)),
            ki=hvac_base.ki * float(gen.uniform(0.8, 1.2)),
            schedule=HVACSchedule(on_hour=on_hour, off_hour=off_hour),
            vav=dataclasses.replace(vav_base, cold_deck_temp=float(gen.uniform(12.0, 14.0))),
            thermostat_blend=blend,
        )
        thermostat_draft = float(gen.uniform(0.10, 0.20))
        initial_temp = float(gen.uniform(19.0, 21.0))
        building_seed = int(gen.integers(0, 2**63 - 1))
        simulation = SimulationConfig(
            start=config.start,
            days=config.days,
            dt=config.dt,
            rc=rc,
            hvac=hvac,
            thermostat_draft=thermostat_draft,
            initial_temp=initial_temp,
            seed=building_seed,
        )
        specs.append(
            BuildingSpec(
                name=name,
                width=width,
                depth=depth,
                height=height,
                seat_rows=rows,
                seat_columns=columns,
                n_vavs=n_vavs,
                diffuser_wiring=_wiring_for(n_vavs),
                diffuser_ys=(front_y, mid_y),
                diffuser_reach=reach,
                simulation=simulation,
            )
        )
    return tuple(specs)


def seed_fleet(
    simulation: Optional[SimulationConfig] = None, seeds: Sequence[int] = ()
) -> Tuple[BuildingSpec, ...]:
    """Paper-default buildings differing only in seed — one cohort.

    This is the batching hook for the robustness/severity sweeps: all
    members share geometry and plant, so one batched pass produces the
    per-seed traces the sweeps would otherwise re-integrate serially.
    """
    base = simulation or SimulationConfig()
    return tuple(
        BuildingSpec.paper_default(
            simulation=dataclasses.replace(base, seed=int(seed)),
            name=f"seed-{int(seed)}",
        )
        for seed in seeds
    )


# ---------------------------------------------------------------------------
# Cohorts and the fleet simulator
# ---------------------------------------------------------------------------


def _cohort_key(plan: KernelPlan) -> tuple:
    """Shape signature deciding which buildings can share one batch."""
    return (
        plan.n_zones,
        plan.n_vavs,
        plan.substeps,
        tuple(tuple(int(v) for v in idx) for idx in plan.diffuser_idx),
    )


class _Cohort:
    """One batch of same-shape buildings integrated together."""

    def __init__(
        self,
        slots: Sequence[int],
        simulators: Sequence[AuditoriumSimulator],
        plans: Sequence[KernelPlan],
    ) -> None:
        self.slots = list(slots)
        self.simulators = list(simulators)
        self.plan = stack_plans(plans)

    @property
    def n_buildings(self) -> int:
        return len(self.slots)

    def iter_chunks(self, chunk_steps: Optional[int] = None) -> Iterator[BatchChunk]:
        """Stream the cohort's batched trajectory as :class:`BatchChunk` slabs."""
        yield from integrate(self.plan, self.simulators, chunk_steps, label="fleet chunk")


@dataclass
class FleetResult:
    """Per-building :class:`SimulationResult` traces from one batched pass."""

    specs: Tuple[BuildingSpec, ...]
    results: Tuple[SimulationResult, ...]

    @property
    def n_buildings(self) -> int:
        return len(self.specs)

    def building(self, name: str) -> SimulationResult:
        """Trace of the building named ``name``."""
        for spec, result in zip(self.specs, self.results):
            if spec.name == name:
                return result
        raise KeyError(f"no fleet building named {name!r}")


class FleetSimulator:
    """Batched closed-loop simulation of a fleet of buildings.

    Buildings are grouped into cohorts of identical array shape; each
    cohort integrates in one vectorized pass.  The fleet must share
    ``start``/``days``/``dt`` (one time axis), everything else can vary
    per building.
    """

    def __init__(self, specs: Sequence[BuildingSpec]) -> None:
        specs = tuple(specs)
        if not specs:
            raise ConfigurationError("a fleet needs at least one building")
        base = specs[0].simulation
        for spec in specs[1:]:
            sim = spec.simulation
            if (sim.start, sim.days, sim.dt) != (base.start, base.days, base.dt):
                raise ConfigurationError(
                    f"fleet members must share start/days/dt; {spec.name!r} differs"
                )
        self.specs = specs
        self.simulators = [spec.simulator() for spec in specs]
        plans = [sim._build_plan() for sim in self.simulators]
        grouped: Dict[tuple, List[int]] = {}
        for slot, plan in enumerate(plans):
            grouped.setdefault(_cohort_key(plan), []).append(slot)
        self.cohorts = [
            _Cohort(slots, [self.simulators[s] for s in slots], [plans[s] for s in slots])
            for slots in grouped.values()
        ]

    @property
    def n_buildings(self) -> int:
        return len(self.specs)

    def iter_building_chunks(
        self, chunk_steps: Optional[int] = None
    ) -> Iterator[Tuple[int, SimulationChunk]]:
        """Yield ``(building slot, solo chunk)`` pairs, cohort by cohort.

        This is the streaming interface the synthetic-data cache layer
        consumes: each yielded chunk is indistinguishable from one the
        building's solo simulator would have produced.
        """
        for cohort in self.cohorts:
            for chunk in cohort.iter_chunks(chunk_steps):
                for j, slot in enumerate(cohort.slots):
                    yield slot, chunk.building(j)

    def run(self, chunk_steps: Optional[int] = None) -> FleetResult:
        """Integrate the whole fleet and assemble per-building results."""
        collected: List[List[SimulationChunk]] = [[] for _ in self.specs]
        for slot, chunk in self.iter_building_chunks(chunk_steps):
            collected[slot].append(chunk)
        results = tuple(
            self.simulators[slot].assemble(chunks) for slot, chunks in enumerate(collected)
        )
        return FleetResult(specs=self.specs, results=results)
