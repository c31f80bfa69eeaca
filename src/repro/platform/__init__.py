"""Edge-platform model: MCU/AFE/battery profiles, the Table III power
budget, battery lifetime, memory accounting and the Algorithm 1 runtime
model."""

from .. import _lazy_exports

__all__ = [
    "DETECTION_DUTY",
    "LABELING_HOURS_PER_SEIZURE",
    "LifetimeEstimate",
    "WearablePlatform",
    "labeling_duty_cycle",
    "ADS1299",
    "PAPER_BATTERY",
    "STM32L151",
    "AnalogFrontEnd",
    "Battery",
    "Microcontroller",
    "MemoryBudget",
    "feature_buffer_bytes",
    "raw_buffer_bytes",
    "PowerBudget",
    "Task",
    "Q4_11",
    "QFormat",
    "dequantize",
    "quantization_rms_error",
    "quantize",
    "RuntimeModel",
    "operation_count",
]

_EXPORTS = {
    ".battery": (
        "DETECTION_DUTY", "LABELING_HOURS_PER_SEIZURE", "LifetimeEstimate", "WearablePlatform",
        "labeling_duty_cycle",
    ),
    ".mcu": (
        "ADS1299", "PAPER_BATTERY", "STM32L151", "AnalogFrontEnd", "Battery", "Microcontroller",
    ),
    ".memory": ("MemoryBudget", "feature_buffer_bytes", "raw_buffer_bytes"),
    ".power": ("PowerBudget", "Task"),
    ".quantization": ("Q4_11", "QFormat", "dequantize", "quantization_rms_error", "quantize"),
    ".runtime": ("RuntimeModel", "operation_count"),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
