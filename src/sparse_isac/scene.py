"""Targets, link budget, and the kinematics-to-channel mapping.

A target's distance and radial velocity map to round-trip delay and
Doppler shift; its echo strength comes either from an explicit amplitude
or from the monostatic radar equation via an RCS and a link budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .alloc import OfdmParams, _check_number

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value

__all__ = [
    "SPEED_OF_LIGHT",
    "Target",
    "LinkBudget",
    "Scene",
    "delay_doppler",
    "amplitude_from_radar_equation",
]


@dataclass(frozen=True)
class Target:
    """One point scatterer.

    Exactly one of rcs_m2 / amplitude must be given.  phase_rad may be
    left None, in which case synthesis draws it uniformly on [0, 2pi)
    from its seed (new draw per synthesized grid).
    """

    distance_m: float
    velocity_mps: float = 0.0
    rcs_m2: float | None = None
    amplitude: float | None = None
    phase_rad: float | None = None

    def __post_init__(self):
        _check_number("distance_m", self.distance_m, positive=True)
        _check_number("velocity_mps", self.velocity_mps)
        if (self.rcs_m2 is None) == (self.amplitude is None):
            raise ValueError("rcs_m2/amplitude: specify exactly one of them")
        if self.amplitude is not None:
            _check_number("amplitude", self.amplitude, positive=True)
        if self.rcs_m2 is not None:
            _check_number("rcs_m2", self.rcs_m2, minimum=0)
        if self.phase_rad is not None:
            _check_number("phase_rad", self.phase_rad, minimum=0)
            if self.phase_rad >= 2 * math.pi:
                raise ValueError(f"phase_rad: must lie in [0, 2*pi), got {self.phase_rad}")


@dataclass(frozen=True)
class LinkBudget:
    """Monostatic link constants: transmit power and antenna gains (linear)."""

    tx_power_w: float
    tx_gain: float
    rx_gain: float
    wavelength_m: float

    def __post_init__(self):
        for name in ("tx_power_w", "tx_gain", "rx_gain", "wavelength_m"):
            _check_number(name, getattr(self, name), positive=True)

    @classmethod
    def for_carrier(
        cls, carrier_freq_hz: float, tx_power_w: float, tx_gain: float, rx_gain: float
    ) -> "LinkBudget":
        wavelength_m = SPEED_OF_LIGHT / carrier_freq_hz
        if math.isinf(wavelength_m):
            raise ValueError(f"carrier_freq_hz: {carrier_freq_hz} Hz has no finite wavelength")
        return cls(
            tx_power_w=tx_power_w,
            tx_gain=tx_gain,
            rx_gain=rx_gain,
            wavelength_m=wavelength_m,
        )


@dataclass(frozen=True)
class Scene:
    """Targets plus the noise specification.

    Noise is given either as noise_variance_w (the per-active-RE complex
    noise variance, split N0/2 per real/imaginary part) or as snr_db, the
    per-active-RE SNR relative to the first target's amplitude.  snr_db of
    +inf and noise_variance_w of 0 both mean noiseless; an snr_db whose
    noise variance overflows or underflows a float is rejected, and so is
    an RCS target whose radar-equation amplitude overflows one or is zero.
    """

    targets: tuple[Target, ...]
    snr_db: float | None = None
    noise_variance_w: float | None = None
    link: LinkBudget | None = None

    def __post_init__(self):
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) < 1:
            raise ValueError("targets: scene needs at least one target")
        if (self.snr_db is not None) and (self.noise_variance_w is not None):
            raise ValueError("snr_db/noise_variance_w: mutually exclusive")
        if self.noise_variance_w is not None:
            _check_number("noise_variance_w", self.noise_variance_w, minimum=0)
        for i, t in enumerate(targets):
            if t.rcs_m2 is None:
                continue
            if self.link is None:
                raise ValueError("link: targets specified by RCS need a LinkBudget")
            try:
                amplitude = amplitude_from_radar_equation(t, self.link)
            except (OverflowError, ZeroDivisionError):  # d**4 overflows or underflows
                amplitude = math.inf
            if amplitude == math.inf:
                raise ValueError(
                    f"targets[{i}]: distance_m: the radar-equation amplitude at "
                    f"{t.distance_m} m with rcs_m2 {t.rcs_m2} overflows a float"
                )
            if amplitude == 0.0:  # rcs_m2 = 0, or the power underflows
                raise ValueError(
                    f"targets[{i}]: rcs_m2: the radar-equation amplitude at "
                    f"{t.distance_m} m with rcs_m2 {t.rcs_m2} is zero"
                )
        if self.snr_db is not None:
            _check_number("snr_db", self.snr_db, allow_inf=True)
            try:
                variance = self.noise_variance()
            except (OverflowError, ZeroDivisionError):
                variance = math.nan
            # only +inf means noiseless, not a variance that underflows to 0
            if self.snr_db != math.inf and not 0.0 < variance < math.inf:
                ref = self.amplitude_of(targets[0])
                raise ValueError(
                    f"snr_db: {self.snr_db} dB relative to the amplitude of "
                    f"targets[0], {ref}, is out of range"
                )

    def amplitude_of(self, target: Target) -> float:
        if target.amplitude is not None:
            return target.amplitude
        return amplitude_from_radar_equation(target, self.link)

    def noise_variance(self) -> float:
        """Resolve the per-active-RE complex noise variance."""
        if self.noise_variance_w is not None:
            return float(self.noise_variance_w)
        if self.snr_db is None or self.snr_db == math.inf:
            return 0.0
        ref = self.amplitude_of(self.targets[0])
        return ref**2 / 10.0 ** (self.snr_db / 10.0)


def delay_doppler(target: Target, params: OfdmParams) -> tuple[float, float]:
    """Map (distance, radial velocity) to (round-trip delay, Doppler shift).

    tau = 2 d / c,  f_D = 2 v f_c / c.
    """
    tau = 2.0 * target.distance_m / SPEED_OF_LIGHT
    f_d = 2.0 * target.velocity_mps * params.carrier_freq_hz / SPEED_OF_LIGHT
    return tau, f_d


def amplitude_from_radar_equation(target: Target, link: LinkBudget | None) -> float:
    """Echo amplitude from the monostatic radar equation.

    |A|^2 = kappa * lambda^2 * G_T * G_R * P_T / ((4 pi)^3 * d^4)
    """
    if target.rcs_m2 is None:
        raise ValueError("target has no RCS; amplitude was given explicitly")
    if link is None:
        raise ValueError("radar-equation amplitude needs a LinkBudget")
    power = (
        target.rcs_m2
        * link.wavelength_m**2
        * link.tx_gain
        * link.rx_gain
        * link.tx_power_w
        / ((4.0 * math.pi) ** 3 * target.distance_m**4)
    )
    return math.sqrt(power)
