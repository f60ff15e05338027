"""Execution statistics of the speculative pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class SimStats:
    """Counters collected during a simulation run."""

    cycles: int = 0
    instructions_retired: int = 0
    transient_instructions: int = 0
    speculative_windows: int = 0
    squashes: int = 0
    branch_predictions: int = 0
    branch_mispredictions: int = 0
    faults: int = 0
    faults_suppressed: int = 0
    speculative_loads: int = 0
    speculative_loads_blocked: int = 0
    speculative_fills: int = 0
    speculative_fills_rolled_back: int = 0
    store_bypasses: int = 0
    store_bypasses_blocked: int = 0
    fault_log: List[str] = field(default_factory=list)

    def record_fault(self, description: str, suppressed: bool) -> None:
        self.faults += 1
        if suppressed:
            self.faults_suppressed += 1
        self.fault_log.append(description)

    def summary(self) -> Dict[str, int]:
        return {
            "cycles": self.cycles,
            "instructions_retired": self.instructions_retired,
            "transient_instructions": self.transient_instructions,
            "speculative_windows": self.speculative_windows,
            "squashes": self.squashes,
            "faults": self.faults,
            "speculative_loads": self.speculative_loads,
            "speculative_loads_blocked": self.speculative_loads_blocked,
            "store_bypasses": self.store_bypasses,
        }
