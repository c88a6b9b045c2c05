"""First-order radio energy model.

tx = e_elec*k + e_amp*k*d^2 for k bits over d km, rx = e_elec*k,
idle power while awake, and a fixed cost per sensor sample.  A node
holds its four figures in millijoules, and they only ever increase.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EnergyParams:
    e_elec_nj_per_bit: float = 50.0
    e_amp_pj_per_bit_km2: float = 100.0
    e_sense_uj: float = 20.0
    p_idle_uw: float = 30.0
    battery_mj: float = 2.0e7

    @property
    def elec_mj_per_bit(self) -> float:
        return self.e_elec_nj_per_bit * 1e-6

    @property
    def amp_mj_per_bit_km2(self) -> float:
        return self.e_amp_pj_per_bit_km2 * 1e-9

    @property
    def sense_mj(self) -> float:
        return self.e_sense_uj * 1e-3

    @property
    def idle_mj_per_s(self) -> float:
        return self.p_idle_uw * 1e-3 * 1e-3  # uW -> mW -> mJ/s

