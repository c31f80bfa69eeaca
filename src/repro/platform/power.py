"""Task-level duty-cycle power model (Table III).

Each system task draws a characteristic current while active and runs
with some duty cycle; the average platform current is the duty-weighted
sum, and every Table III column follows from it:

* avg current per task = current x duty cycle,
* energy share per task = its avg current / total avg current,
* battery lifetime = capacity / total avg current.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import PlatformError, at_least, within

__all__ = ["Task", "PowerBudget"]


@dataclass(frozen=True)
class Task:
    """One row of the Table III power budget.

    Attributes
    ----------
    name:
        Human-readable task name.
    current_ma:
        Current drawn while the task is active.
    duty_cycle:
        Fraction of time the task is active, in [0, 1].
    """

    name: str
    current_ma: float
    duty_cycle: float

    def __post_init__(self) -> None:
        at_least(self.current_ma, f"{self.name}: current_ma", PlatformError, 0)
        within(self.duty_cycle, f"{self.name}: duty_cycle", PlatformError, 0, 1)

    @property
    def average_current_ma(self) -> float:
        """Duty-weighted average current contribution."""
        return self.current_ma * self.duty_cycle


@dataclass(frozen=True)
class PowerBudget:
    """A set of concurrent tasks forming the platform's power draw.

    CPU-exclusive tasks (detection, labeling, idle) must have duty cycles
    summing to at most 1; always-on peripherals (acquisition) run at duty
    1 in parallel and are exempt from that check via ``cpu_exclusive``.
    """

    tasks: tuple[Task, ...]
    #: names of tasks sharing the single CPU (their duties must sum <= 1)
    cpu_exclusive: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.tasks:
            raise PlatformError("power budget needs at least one task")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise PlatformError(f"duplicate task names in {names}")
        missing = set(self.cpu_exclusive) - set(names)
        if missing:
            raise PlatformError(f"cpu_exclusive references unknown tasks {missing}")
        cpu_duty = sum(
            t.duty_cycle for t in self.tasks if t.name in self.cpu_exclusive
        )
        if cpu_duty > 1.0 + 1e-9:
            raise PlatformError(
                f"CPU-exclusive duty cycles sum to {cpu_duty:.3f} > 1"
            )

    def task(self, name: str) -> Task:
        for t in self.tasks:
            if t.name == name:
                return t
        raise PlatformError(f"no task {name!r} in budget")

    @property
    def total_average_current_ma(self) -> float:
        """The number the battery divides by."""
        return sum(t.average_current_ma for t in self.tasks)

    def energy_shares(self) -> dict[str, float]:
        """Fraction of total energy per task (the Fig. 5 pie)."""
        total = self.total_average_current_ma
        if total <= 0:
            raise PlatformError("total average current is zero")
        return {t.name: t.average_current_ma / total for t in self.tasks}

    def table_rows(self) -> list[dict[str, float | str]]:
        """Table III rows: task, current, duty %, avg current, energy %."""
        shares = self.energy_shares()
        return [
            {
                "task": t.name,
                "current_ma": t.current_ma,
                "duty_cycle_pct": 100.0 * t.duty_cycle,
                "avg_current_ma": t.average_current_ma,
                "energy_pct": 100.0 * shares[t.name],
            }
            for t in self.tasks
        ]
