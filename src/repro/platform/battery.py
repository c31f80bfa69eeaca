"""Battery-lifetime model of the paper's wearable system (Sec. VI-C).

Builds the Table III power budget from first principles:

* **EEG acquisition** runs always (duty 1) at the front-end current —
  the labeling algorithm "requires the EEG signal to be constantly
  sampled from the two electrode pairs".
* **Supervised real-time detection** "requires three seconds for
  processing a four-second window", i.e. CPU duty 75%.
* **A-posteriori labeling** runs only after a missed seizure, processing
  one hour of signal in one hour of CPU time ("one second of signal is
  processed in one second"); at ``f`` seizures/day its duty is
  ``f * 1h / 24h`` (one seizure a day -> 4.17%, one a month -> 0.14%).
* **Idle** soaks up the remaining CPU time at sleep current.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import PlatformError, at_least, integer
from .mcu import ADS1299, PAPER_BATTERY, STM32L151, AnalogFrontEnd, Battery, Microcontroller
from .power import PowerBudget, Task

__all__ = [
    "labeling_duty_cycle",
    "WearablePlatform",
    "LifetimeEstimate",
]

#: CPU duty of the real-time detector: 3 s processing per 4 s window.
DETECTION_DUTY = 0.75
#: Hours of signal the labeler replays per trigger (the patient lookback).
LABELING_HOURS_PER_SEIZURE = 1.0


def labeling_duty_cycle(seizures_per_day: float) -> float:
    """CPU duty of the a-posteriori labeler at a given seizure frequency.

    One seizure a day gives 1 h of processing per 24 h = 4.17%; one a
    month gives 0.139%.  ``seizures_per_day`` is finite and >= 0, and
    at most 24 (a full day of labeling).
    """
    at_least(seizures_per_day, "seizures_per_day", PlatformError, 0)
    duty = seizures_per_day * LABELING_HOURS_PER_SEIZURE / 24.0
    if duty > 1.0:
        raise PlatformError(
            f"{seizures_per_day} seizures/day exceeds available CPU time"
        )
    return duty


@dataclass(frozen=True)
class LifetimeEstimate:
    """Lifetime plus the budget that produced it."""

    budget: PowerBudget
    battery: Battery

    @property
    def average_current_ma(self) -> float:
        return self.budget.total_average_current_ma

    @property
    def hours(self) -> float:
        return self.battery.lifetime_hours(self.average_current_ma)

    @property
    def days(self) -> float:
        return self.hours / 24.0


@dataclass(frozen=True)
class WearablePlatform:
    """The paper's representative wearable: MCU + AFE + battery.

    The three ``*_budget`` constructors mirror the three operating points
    analyzed in Sec. VI-C: labeling only, detection only, and the full
    self-learning system.
    """

    mcu: Microcontroller = STM32L151
    afe: AnalogFrontEnd = ADS1299
    battery: Battery = PAPER_BATTERY
    n_electrode_pairs: int = 2

    def __post_init__(self) -> None:
        integer(self.n_electrode_pairs, "n_electrode_pairs", PlatformError, 1)

    # ------------------------------------------------------------------
    @property
    def acquisition_current_ma(self) -> float:
        return self.afe.current_per_channel_ma * self.n_electrode_pairs

    def _acquisition_task(self) -> Task:
        return Task(
            name="EEG Acquisition (x2)",
            current_ma=self.acquisition_current_ma,
            duty_cycle=1.0,
        )

    def _idle_task(self, cpu_duty_used: float) -> Task:
        return Task(
            name="Idle",
            current_ma=self.mcu.idle_current_ma,
            duty_cycle=max(0.0, 1.0 - cpu_duty_used),
        )

    # ------------------------------------------------------------------
    def labeling_only_budget(self, seizures_per_day: float) -> PowerBudget:
        """Sec. VI-C first experiment: acquisition + labeling, no
        real-time detection (631.46 h at 1/month ... 430.16 h at 1/day)."""
        duty = labeling_duty_cycle(seizures_per_day)
        return PowerBudget(
            tasks=(
                self._acquisition_task(),
                Task("EEG Labeling", self.mcu.active_current_ma, duty),
                self._idle_task(duty),
            ),
            cpu_exclusive=("EEG Labeling", "Idle"),
        )

    def detection_only_budget(self) -> PowerBudget:
        """Real-time detection without the labeler (65.15 h = 2.71 days)."""
        return PowerBudget(
            tasks=(
                self._acquisition_task(),
                Task("EEG Sup. Detection", self.mcu.active_current_ma, DETECTION_DUTY),
                self._idle_task(DETECTION_DUTY),
            ),
            cpu_exclusive=("EEG Sup. Detection", "Idle"),
        )

    def full_system_budget(self, seizures_per_day: float) -> PowerBudget:
        """The complete self-learning system (Table III at 1 seizure/day:
        2.59 days)."""
        label_duty = labeling_duty_cycle(seizures_per_day)
        used = DETECTION_DUTY + label_duty
        if used > 1.0:
            raise PlatformError(
                f"detection ({DETECTION_DUTY:.0%}) + labeling "
                f"({label_duty:.2%}) exceed CPU time"
            )
        return PowerBudget(
            tasks=(
                self._acquisition_task(),
                Task("EEG Sup. Detection", self.mcu.active_current_ma, DETECTION_DUTY),
                Task("EEG Labeling", self.mcu.active_current_ma, label_duty),
                self._idle_task(used),
            ),
            cpu_exclusive=("EEG Sup. Detection", "EEG Labeling", "Idle"),
        )

    # ------------------------------------------------------------------
    def lifetime(self, budget: PowerBudget) -> LifetimeEstimate:
        return LifetimeEstimate(budget=budget, battery=self.battery)

    def lifetime_sweep(
        self, seizures_per_day_values: tuple[float, ...], full_system: bool = True
    ) -> dict[float, LifetimeEstimate]:
        """Lifetime across seizure frequencies (the Sec. VI-C sweep)."""
        out = {}
        for f in seizures_per_day_values:
            budget = (
                self.full_system_budget(f)
                if full_system
                else self.labeling_only_budget(f)
            )
            out[f] = self.lifetime(budget)
        return out
