"""Hardware profiles of the target wearable platform (Sec. V-B).

"The considered representative platform features an ultra-low power 32-bit
microcontroller STM32L151 with an ARM Cortex-M3, whose maximum operating
frequency is 32 MHz ... The memory of this system consists of 48 KB RAM
and 384 KB Flash, the battery has a capacity of 570 mAh and it includes a
24-bit ADC [ADS1299-4]."

The current draws used in Table III are encoded as device profiles here so
the power model (:mod:`repro.platform.power`) is pure arithmetic over
explicit data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import PlatformError, at_least, integer, positive

__all__ = ["Microcontroller", "AnalogFrontEnd", "Battery", "STM32L151", "ADS1299", "PAPER_BATTERY"]


@dataclass(frozen=True)
class Microcontroller:
    """MCU profile: compute and memory resources plus current draws.

    Frequencies and the active current are finite and positive, memory
    sizes integers >= 1, and the idle current finite, >= 0 and below
    the active current.
    """

    name: str
    max_freq_hz: float
    ram_bytes: int
    flash_bytes: int
    active_current_ma: float
    idle_current_ma: float

    def __post_init__(self) -> None:
        positive(self.max_freq_hz, "max_freq_hz", PlatformError)
        integer(self.ram_bytes, "ram_bytes", PlatformError, 1)
        integer(self.flash_bytes, "flash_bytes", PlatformError, 1)
        positive(self.active_current_ma, "active_current_ma", PlatformError)
        at_least(self.idle_current_ma, "idle_current_ma", PlatformError, 0)
        if self.idle_current_ma >= self.active_current_ma:
            raise PlatformError("idle current must be below active current")


@dataclass(frozen=True)
class AnalogFrontEnd:
    """EEG acquisition front-end profile (per electrode pair): a finite
    positive current and sample rate, and an integer ``adc_bits >= 1``."""

    name: str
    current_per_channel_ma: float
    adc_bits: int
    max_sample_rate_hz: float

    def __post_init__(self) -> None:
        positive(self.current_per_channel_ma, "current_per_channel_ma", PlatformError)
        integer(self.adc_bits, "adc_bits", PlatformError, 1)
        positive(self.max_sample_rate_hz, "max_sample_rate_hz", PlatformError)


@dataclass(frozen=True)
class Battery:
    """Battery profile: a finite and positive capacity."""

    capacity_mah: float

    def __post_init__(self) -> None:
        positive(self.capacity_mah, "capacity_mah", PlatformError)

    def lifetime_hours(self, average_current_ma: float) -> float:
        """Hours of operation at a constant average current draw."""
        positive(average_current_ma, "average_current_ma", PlatformError)
        return self.capacity_mah / average_current_ma


#: The paper's MCU.  Active current 10.5 mA is the Table III processing
#: figure (STM32L151 running from flash at 32 MHz); idle 0.018 mA is the
#: Table III idle row (low-power sleep with RTC).
STM32L151 = Microcontroller(
    name="STM32L151",
    max_freq_hz=32e6,
    ram_bytes=48 * 1024,
    flash_bytes=384 * 1024,
    active_current_ma=10.5,
    idle_current_ma=0.018,
)

#: The paper's acquisition chain: Table III lists "EEG Acquisition (x2)"
#: at 0.870 mA total for the two electrode pairs.
ADS1299 = AnalogFrontEnd(
    name="ADS1299-4",
    current_per_channel_ma=0.435,
    adc_bits=24,
    max_sample_rate_hz=16e3,
)

#: The paper's 570 mAh battery.
PAPER_BATTERY = Battery(capacity_mah=570.0)
