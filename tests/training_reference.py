"""The timed training loop that ``SpeculativeCPU.train`` is tested against.

Both harnesses used to mistrain the bounds-check branch with a hand-written
loop that pushed every training run through ``run``, so a
:class:`~repro.uarch.timing.core.TimingCPU` recorded, scheduled and traced
each one.  :meth:`~repro.uarch.timing.core.TimingCPU.train` now runs them on
the functional plane alone, and must leave exactly the state the timed loop
left: the same victim trace, decoded byte and
:class:`~repro.uarch.stats.SimStats`.  This module keeps the loop as the
oracle: :func:`timed_training` is its body verbatim.  Do not modernize it;
its whole value is that it did not change when the production training did.
The differential tests in ``test_fuzz_generator.py`` and ``test_exploits.py``
hold the two equal.
"""

from __future__ import annotations

from repro.uarch.pipeline import SpeculativeCPU
from repro.uarch.timing.core import TimingCPU


def timed_training(cpu, start, rounds, **registers) -> None:
    """``rounds`` runs from ``start``, each after writing ``registers``."""
    for _ in range(rounds):
        for name, value in registers.items():
            cpu.set_register(name, value)
        cpu.run(start)


class ReferenceTrainedCPU(TimingCPU):
    """A timing core that times its training runs; ``traces`` keeps each one."""

    def train(self, start, rounds, **registers) -> None:
        timed_training(self, start, rounds, **registers)


class ReferenceTrainedSpeculativeCPU(SpeculativeCPU):
    """A functional core trained through the reference loop."""

    def train(self, start, rounds, **registers) -> None:
        timed_training(self, start, rounds, **registers)
