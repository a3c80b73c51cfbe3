"""Zonal resistance–capacitance thermal network of the auditorium.

The room air is discretized into the :class:`~repro.geometry.ZoneGrid`'s
well-mixed zones.  Each zone has

* an effective air/furnishing heat capacitance,
* turbulent-mixing conductances to its grid neighbours,
* a coupling to a local envelope mass node (wall/floor/ceiling section)
  which in turn couples to the ambient (boundary zones) and to the
  ground (the room is in a basement),
* direct infiltration from ambient on boundary zones,
* supply-air enthalpy flow from the diffusers, and
* occupant / lighting heat injection.

The resulting model is a ~60-state linear(-in-state) system with mixing
time constants of minutes and envelope time constants of hours — high
order and spatially uneven, which is exactly why the paper's first-order
fit underperforms its second-order fit and why clustering finds a cool
front and a warm back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.contracts import check_shapes
from repro.errors import ConfigurationError, SimulationError
from repro.geometry import Auditorium, ZoneGrid

__all__ = [
    "RCNetworkConfig",
    "RCNetwork",
]

AIR_DENSITY = 1.2  # kg/m³
AIR_CP = 1005.0  # J/(kg·K)


@dataclass(frozen=True)
class RCNetworkConfig:
    """Physical parameters of the zonal RC network."""

    #: Effective heat capacitance of one zone's air + furnishings, J/K.
    zone_capacitance: float = 2.5e5
    #: Turbulent mixing conductance between adjacent zones, W/K.
    mixing_conductance: float = 550.0
    #: Conductance between a zone's air and its envelope mass node, W/K.
    mass_coupling: float = 60.0
    #: Heat capacitance of each envelope mass node, J/K.
    mass_capacitance: float = 4.0e6
    #: Conductance from boundary-zone mass nodes to ambient air, W/K.
    exterior_conductance: float = 1.0
    #: Conductance from every mass node to the ground, W/K.
    ground_conductance: float = 30.0
    #: Core temperature the envelope masses relax to, °C: the room is a
    #: basement interior zone surrounded by conditioned building and soil.
    ground_temp: float = 20.5
    #: Direct infiltration conductance, boundary zones to ambient, W/K.
    infiltration_conductance: float = 0.5
    #: Sensible heat emitted per occupant, W.
    occupant_heat: float = 100.0

    def __post_init__(self) -> None:
        for name in (
            "zone_capacitance",
            "mixing_conductance",
            "mass_coupling",
            "mass_capacitance",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in (
            "exterior_conductance",
            "ground_conductance",
            "infiltration_conductance",
            "occupant_heat",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


class RCNetwork:
    """The auditorium's thermal plant: zone air nodes + envelope mass nodes."""

    def __init__(
        self,
        auditorium: Auditorium,
        grid: ZoneGrid,
        config: Optional[RCNetworkConfig] = None,
    ) -> None:
        if grid.auditorium is not auditorium:
            raise ConfigurationError("grid must be built over the same auditorium")
        self.auditorium = auditorium
        self.grid = grid
        self.config = config or RCNetworkConfig()
        n = grid.n_zones
        cfg = self.config

        # Mixing Laplacian: (L @ T)[j] = sum_i G_mix (T_i - T_j) over neighbours.
        mixing = np.zeros((n, n))
        for a, b in grid.adjacency():
            mixing[a, b] += cfg.mixing_conductance
            mixing[b, a] += cfg.mixing_conductance
            mixing[a, a] -= cfg.mixing_conductance
            mixing[b, b] -= cfg.mixing_conductance
        self._mixing = mixing

        boundary = np.zeros(n)
        boundary[grid.boundary_zones()] = 1.0
        self._infiltration = cfg.infiltration_conductance * boundary
        self._exterior = cfg.exterior_conductance * boundary

        # Fraction of each diffuser's air to each zone, premultiplied so a
        # (n_diffusers,) flow vector maps straight to per-zone mass flow.
        self._diffuser_fractions = grid.diffuser_flow_fractions()

    @property
    def n_zones(self) -> int:
        return self.grid.n_zones

    @property
    def n_states(self) -> int:
        """Air nodes plus mass nodes."""
        return 2 * self.grid.n_zones

    def initial_state(self, temp_c: float = 20.0) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform initial ``(zone_temps, mass_temps)`` at ``temp_c`` °C."""
        n = self.n_zones
        return np.full(n, float(temp_c)), np.full(n, float(temp_c))

    @check_shapes(diffuser_flows="d", diffuser_temps="d")
    def supply_to_zones(
        self, diffuser_flows: np.ndarray, diffuser_temps: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Distribute diffuser supply onto zones.

        Returns ``(zone_mass_flow_kgs, zone_supply_temp_c)``: kg/s of supply
        air into each zone and the flow-weighted supply temperature seen
        by each zone (zones receiving no air get the mean supply temp,
        irrelevant since their flow is 0).
        """
        flows = np.asarray(diffuser_flows, dtype=float)
        temps = np.asarray(diffuser_temps, dtype=float)
        n_diffusers = self._diffuser_fractions.shape[0]
        if flows.shape != (n_diffusers,) or temps.shape != (n_diffusers,):
            raise SimulationError(
                f"expected {n_diffusers} diffuser flows/temps, got {flows.shape}/{temps.shape}"
            )
        zone_volume_flow = self._diffuser_fractions.T @ flows  # m³/s per zone
        weighted_temp = self._diffuser_fractions.T @ (flows * temps)
        with np.errstate(invalid="ignore", divide="ignore"):
            zone_temp = np.where(
                zone_volume_flow > 1e-12, weighted_temp / np.maximum(zone_volume_flow, 1e-12), temps.mean()
            )
        return AIR_DENSITY * zone_volume_flow, zone_temp

    def derivatives(
        self,
        zone_temps: np.ndarray,
        mass_temps: np.ndarray,
        zone_mass_flow_kgs: np.ndarray,
        zone_supply_temp_c: np.ndarray,
        zone_heat_w: np.ndarray,
        ambient_temp_c: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Time derivatives of ``(zone_temps, mass_temps)`` in K/s."""
        cfg = self.config
        supply = zone_mass_flow_kgs * AIR_CP * (zone_supply_temp_c - zone_temps)
        q_air = (
            self._mixing @ zone_temps
            + cfg.mass_coupling * (mass_temps - zone_temps)
            + self._infiltration * (ambient_temp_c - zone_temps)
            + supply
            + zone_heat_w
        )
        q_mass = (
            cfg.mass_coupling * (zone_temps - mass_temps)
            + self._exterior * (ambient_temp_c - mass_temps)
            + cfg.ground_conductance * (cfg.ground_temp - mass_temps)
        )
        return q_air / cfg.zone_capacitance, q_mass / cfg.mass_capacitance

    def max_stable_dt(self, zone_mass_flow_kgs: Optional[np.ndarray] = None) -> float:
        """Largest explicit-Euler step guaranteed stable, seconds.

        Bounded by the fastest air node: ``dt < 2 C / G_total``.  We
        return the conservative ``C / G_total``.
        """
        cfg = self.config
        degree = -np.diag(self._mixing)  # total mixing conductance per zone
        g_total = degree + cfg.mass_coupling + self._infiltration
        if zone_mass_flow_kgs is not None:
            g_total = g_total + np.asarray(zone_mass_flow_kgs) * AIR_CP
        else:
            # Worst case: all VAVs at max flow into the best-served zone.
            max_flow = AIR_DENSITY * 4.0 * 0.8 * self._diffuser_fractions.max()
            g_total = g_total + max_flow * AIR_CP
        worst = float(g_total.max())
        if worst <= 0:
            return 3600.0
        return cfg.zone_capacitance / worst

    def occupant_zone_heat(self, zone_occupancy: np.ndarray) -> np.ndarray:
        """Heat injected per zone (W) by the given per-zone headcounts."""
        occupancy = np.asarray(zone_occupancy, dtype=float)
        if occupancy.shape != (self.n_zones,):
            raise SimulationError(
                f"zone occupancy has shape {occupancy.shape}, expected ({self.n_zones},)"
            )
        return self.config.occupant_heat * occupancy

    def lighting_zone_heat(self, lighting_state: float, lighting_watts: float) -> np.ndarray:
        """Lighting heat (W) spread uniformly over all zones."""
        return np.full(self.n_zones, lighting_watts * float(lighting_state) / self.n_zones)
