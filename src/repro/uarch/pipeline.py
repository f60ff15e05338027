"""The speculative out-of-order core: architectural execution plus transient windows.

The simulator executes programs of the tiny ISA with exactly the
micro-architectural behaviours the speculative execution attacks rely on:

* **Delayed authorization opens a speculation window.**  A conditional branch
  whose flags come from a cache miss, an indirect branch / return whose
  target is not yet known, a load that faults on the permission check, a load
  that may bypass an older store with an unresolved address, a privileged
  register read from user mode, or a floating-point access owned by another
  context -- each triggers a *transient window* in which younger instructions
  execute with scratch register state.
* **Architectural state is rolled back, micro-architectural state is not.**
  When the window squashes, register changes disappear but cache fills,
  line-fill-buffer and load-port contents persist -- that is the covert
  channel.
* **Defenses are ordering constraints.**  Every member of
  :class:`~repro.uarch.defenses.SimDefense` suppresses one specific behaviour
  inside the transient window (no access, no forwarding, no cache change,
  rollback, partitioning, or predictor flushing), mirroring the paper's
  defense strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..isa.instructions import (
    Alu,
    Branch,
    Call,
    Clflush,
    Cmp,
    Fence,
    FpExtract,
    FpLoad,
    Halt,
    IndirectJmp,
    Instruction,
    Jmp,
    Load,
    Mov,
    Nop,
    Rdmsr,
    Rdtsc,
    Ret,
    Store,
)
from ..isa.operands import FLAGS, Immediate, Label, MemoryOperand, Register
from ..isa.program import Program
from .buffers import LineFillBuffer, LoadPort, StoreBuffer, StoreBufferEntry
from .cache import SetAssociativeCache
from .config import DEFAULT_CONFIG, UarchConfig
from .defenses import SimDefense
from .memory import Fault, MemorySystem
from .predictor import PredictorSuite
from .registers import MASK64, Flags, FPUState, RegisterFile, SpecialRegisters
from .stats import SimStats


@dataclass
class ExecutionResult:
    """Outcome of one :meth:`SpeculativeCPU.run` call."""

    halted: bool
    instructions: int
    stats: SimStats
    faults: List[str] = field(default_factory=list)

    @property
    def leaked_transiently(self) -> bool:
        """Whether any speculative load executed during the run."""
        return self.stats.speculative_loads > 0


class _StopWindow(Exception):
    """Internal: terminate the current transient window."""


class SpeculativeCPU:
    """A functional simulator of a speculative out-of-order core."""

    #: Cache partition used by victim / sender accesses.
    VICTIM_PARTITION = 0
    #: Cache partition used by the attacker's probes when DAWG is enabled.
    RECEIVER_PARTITION = 1

    def __init__(
        self,
        program: Program,
        config: UarchConfig = DEFAULT_CONFIG,
        *,
        supervisor: bool = False,
    ) -> None:
        self.program = program
        self.config = config
        self.supervisor = supervisor
        self.context_id = 0

        self.registers = RegisterFile()
        self.flags = Flags()
        self.flags_slow = False
        self.special_registers = SpecialRegisters()
        self.fpu = FPUState()

        self.memory = MemorySystem()
        self.cache = SetAssociativeCache(
            sets=config.cache_sets,
            ways=config.cache_ways,
            line_size=config.line_size,
            hit_latency=config.cache_hit_latency,
            miss_latency=config.cache_miss_latency,
        )
        self.predictors = PredictorSuite()
        self.store_buffer = StoreBuffer()
        self.fill_buffer = LineFillBuffer()
        self.load_port = LoadPort()

        self.stats = SimStats()
        self.call_stack: List[int] = []
        self.fault_recovery_pc: Optional[int] = None
        #: Pending stores whose addresses are architecturally known to the
        #: simulator but not yet "resolved" by the core (Spectre v4 window).
        self._pending_store_addresses: Dict[int, int] = {}

        self._initialise_memory()

    # ==================================================================
    # Setup helpers
    # ==================================================================
    def _initialise_memory(self) -> None:
        for symbol in self.program.symbols.values():
            if symbol.initial:
                self.memory.memory.load_bytes(symbol.address, symbol.initial)
            if symbol.kernel:
                self.memory.page_table.map_range(
                    symbol.address, symbol.size, user=False, present=True
                )
                if self.config.has(SimDefense.KERNEL_ISOLATION):
                    self.memory.page_table.unmap_range(symbol.address, symbol.size)

    # -- harness-facing helpers -----------------------------------------
    def write_memory(self, address: int, value: int, size: int = 1) -> None:
        """Directly initialise memory contents (test/harness helper)."""
        self.memory.memory.write(address, value, size)

    def read_memory(self, address: int, size: int = 1) -> int:
        return self.memory.memory.read(address, size)

    def set_register(self, name: str, value: int) -> None:
        self.registers.write(name, value)

    def get_register(self, name: str) -> int:
        return self.registers.read(name)

    def flush_lines(self, addresses: Iterable[int]) -> None:
        """Flush each address's line from every partition (the receiver's clflush)."""
        self.cache.flush_lines(addresses)

    def flush_range(self, start: int, size: int) -> None:
        self.cache.flush_range(start, size)

    def flush_symbol(self, name: str) -> None:
        symbol = self.program.symbol(name)
        self.cache.flush_range(symbol.address, symbol.size)

    def touch(self, address: int) -> None:
        """Warm a cache line in the victim partition (harness helper)."""
        self.cache.access(address, partition=self.VICTIM_PARTITION)

    def victim_access(self, address: int, size: int = 1) -> int:
        """A legal access performed by a victim sharing this core.

        The access goes through the full memory hierarchy, so it warms the
        cache *and* leaves the data in the line fill buffer and load ports --
        the state the MDS attacks (RIDL, ZombieLoad, Fallout) sample.
        """
        value, _ = self._read_memory_value(address, size, transient=False, speculative=False)
        return value

    @property
    def receiver_partition(self) -> int:
        if self.config.has(SimDefense.PARTITIONED_CACHE):
            return self.RECEIVER_PARTITION
        return self.VICTIM_PARTITION

    def probe_lines(self, addresses: Iterable[int]) -> List[int]:
        """Timed probes of the receiver (Flush+Reload), one latency per address.

        Probes are non-allocating, so reloading one entry of the 256-entry
        probe array does not evict the entry the victim touched -- the timing
        information is the same either way.
        """
        return self.cache.probe_lines(addresses, self.receiver_partition)

    def context_switch(self, new_context: int, *, supervisor: Optional[bool] = None) -> None:
        """Switch context; with the predictor-flush defense this clears predictors."""
        self.context_id = new_context
        if supervisor is not None:
            self.supervisor = supervisor
        if self.config.has(SimDefense.FLUSH_PREDICTORS):
            self.predictors.flush_all()

    def set_fault_handler(self, target: Union[int, str, None]) -> None:
        """Where execution resumes after a suppressed fault (the attacker's handler)."""
        if isinstance(target, str):
            self.fault_recovery_pc = self.program.label_index(target)
        else:
            self.fault_recovery_pc = target

    def train_btb(self, branch_index: int, target_index: int) -> None:
        """Poison the BTB entry of an indirect branch (Spectre v2 setup)."""
        self.predictors.btb.train(branch_index, target_index)

    def poison_rsb(self, target_index: int) -> None:
        """Overwrite the top RSB entry (Spectre-RSB setup)."""
        self.predictors.rsb.poison(target_index)

    # ==================================================================
    # Main execution loop
    # ==================================================================
    def run(self, start: Union[int, str] = 0, max_instructions: Optional[int] = None) -> ExecutionResult:
        """Execute the program architecturally from ``start`` until halt."""
        pc = self.program.label_index(start) if isinstance(start, str) else start
        budget = max_instructions if max_instructions is not None else self.config.max_instructions
        executed = 0
        halted = False
        while 0 <= pc < len(self.program) and executed < budget:
            instruction = self.program[pc]
            executed += 1
            self.stats.instructions_retired += 1
            self.stats.cycles += 1
            next_pc = self._execute_instruction(pc, instruction)
            if next_pc is None:
                halted = True
                break
            pc = next_pc
        return ExecutionResult(
            halted=halted,
            instructions=executed,
            stats=self.stats,
            faults=list(self.stats.fault_log),
        )

    def train(self, start: Union[int, str], rounds: int, **registers: int) -> None:
        """Mistrain the predictors (step 1b of the attack): ``rounds`` runs from
        ``start``, each after writing ``registers``.

        Training leaves predictor, cache and register state behind for the
        victim run; nothing reads the runs' results.
        """
        for _ in range(rounds):
            for name, value in registers.items():
                self.set_register(name, value)
            self.run(start)

    def _execute_instruction(self, pc: int, instruction: Instruction) -> Optional[int]:
        """Execute one fetched instruction; ``None`` means the program halted.

        The per-instruction hook subclasses wrap to observe the architectural
        stream (the timing core records its dynamic-op trace here).
        """
        if isinstance(instruction, Halt):
            return None
        return self._step(pc, instruction)

    # ------------------------------------------------------------------
    def _step(self, pc: int, instruction: Instruction) -> int:
        """Execute one instruction architecturally; return the next pc."""
        if isinstance(instruction, Branch):
            return self._step_branch(pc, instruction)
        if isinstance(instruction, Jmp):
            return self.program.label_index(instruction.target.name)
        if isinstance(instruction, IndirectJmp):
            return self._step_indirect_jump(pc, instruction)
        if isinstance(instruction, Call):
            self.call_stack.append(pc + 1)
            self.predictors.rsb.push(pc + 1)
            return self.program.label_index(instruction.target.name)
        if isinstance(instruction, Ret):
            return self._step_return(pc)
        if isinstance(instruction, Load):
            return self._step_load(pc, instruction)
        if isinstance(instruction, Store):
            return self._step_store(pc, instruction)
        if isinstance(instruction, Cmp):
            self._exec_cmp(instruction, transient=False, blocked=set())
            return pc + 1
        if isinstance(instruction, Rdmsr):
            return self._step_rdmsr(pc, instruction)
        if isinstance(instruction, (FpLoad, FpExtract)):
            return self._step_fp(pc, instruction)
        # Remaining instructions have no speculation trigger.
        self._exec_simple(instruction, transient=False, blocked=set())
        return pc + 1

    # ==================================================================
    # Speculation triggers
    # ==================================================================
    def _step_branch(self, pc: int, instruction: Branch) -> int:
        predictor = self.predictors.direction
        actual_taken = self.flags.evaluate(instruction.condition)
        taken_target = self.program.label_index(instruction.target.name)
        if self.flags_slow and predictor.has_entry(pc):
            predicted_taken = predictor.predict(pc)
            self.stats.branch_predictions += 1
            predicted_pc = taken_target if predicted_taken else pc + 1
            self._run_transient_window(predicted_pc)
            predictor.record_outcome(predicted_taken, actual_taken)
            if predicted_taken != actual_taken:
                self.stats.branch_mispredictions += 1
                self._squash()
            else:
                self._commit_speculation()
        predictor.train(pc, actual_taken)
        self.flags_slow = False
        return taken_target if actual_taken else pc + 1

    def _step_indirect_jump(self, pc: int, instruction: IndirectJmp) -> int:
        actual_target = self.registers.read(instruction.target.name)
        if self.registers.is_slow(instruction.target.name):
            predicted = self.predictors.btb.predict(pc)
            if predicted is not None:
                self.stats.branch_predictions += 1
                self._run_transient_window(predicted)
                if predicted != actual_target:
                    self.stats.branch_mispredictions += 1
                    self._squash()
                else:
                    self._commit_speculation()
            self.registers.mark_ready(instruction.target.name)
        self.predictors.btb.train(pc, actual_target)
        return actual_target

    def _step_return(self, pc: int) -> int:
        if not self.call_stack:
            return len(self.program)  # falls off the end: treated as halt
        actual_target = self.call_stack.pop()
        predicted = self.predictors.rsb.pop()
        if predicted is not None and predicted != actual_target:
            self.stats.branch_predictions += 1
            self.stats.branch_mispredictions += 1
            self._run_transient_window(predicted)
            self._squash()
        return actual_target

    def _step_load(self, pc: int, instruction: Load) -> int:
        address, address_slow = self._effective_address(instruction.address, blocked=set())
        assert address is not None
        fault = self.memory.page_table.check(address, supervisor=self.supervisor)

        bypassed_store = self._find_bypassable_store(address)
        if fault is Fault.NONE and bypassed_store is not None:
            return self._load_with_store_bypass(pc, instruction, address, bypassed_store)
        if fault is not Fault.NONE:
            return self._faulting_load(pc, instruction, address, fault)

        value, latency = self._read_memory_value(
            address, instruction.size, transient=False, speculative=False
        )
        self.stats.cycles += latency
        slow = latency >= self.config.cache_miss_latency
        self.registers.write(instruction.dst.name, value, slow=slow)
        return pc + 1

    def _step_store(self, pc: int, instruction: Store) -> int:
        address, address_slow = self._effective_address(instruction.address, blocked=set())
        assert address is not None
        value = self._source_value(instruction.src, blocked=set())
        assert value is not None
        if address_slow and not self.config.has(SimDefense.NO_STORE_BYPASS):
            # The store sits in the store buffer with its address unresolved;
            # a younger load may speculatively bypass it (Spectre v4).
            entry = self.store_buffer.add(value, instruction.size, address=None)
            self._pending_store_addresses[entry.sequence] = address
        else:
            entry = self.store_buffer.add(value, instruction.size, address=address)
            self.memory.memory.write(address, value, instruction.size)
            self.cache.access(address, partition=self.VICTIM_PARTITION)
        return pc + 1

    def _step_rdmsr(self, pc: int, instruction: Rdmsr) -> int:
        value = self.special_registers.read(instruction.msr)
        if self.supervisor:
            self.registers.write(instruction.dst.name, value)
            return pc + 1
        # Unprivileged RDMSR: the privilege check is the delayed authorization;
        # the value may be forwarded transiently before the fault is raised.
        transient_value: Optional[int] = value
        if self.config.has(SimDefense.PREVENT_SPECULATIVE_LOADS):
            transient_value = None
        elif self.config.has(SimDefense.NO_SPECULATIVE_FORWARDING):
            transient_value = None
        self._run_transient_window(
            pc + 1,
            overrides={instruction.dst.name: transient_value},
        )
        self._squash()
        return self._raise_fault(pc, f"rdmsr #{instruction.msr:#x} at user privilege", instruction.dst.name)

    def _step_fp(self, pc: int, instruction: Union[FpLoad, FpExtract]) -> int:
        if self.fpu.owner == self.context_id:
            self._exec_simple(instruction, transient=False, blocked=set())
            return pc + 1
        # Lazy-FP: the ownership check is delayed; the stale FP state of the
        # previous context can be read transiently before the fault.
        overrides: Dict[str, Optional[int]] = {}
        if isinstance(instruction, FpExtract):
            stale = self.fpu.read(instruction.src.name)
            blocked = self.config.has(SimDefense.PREVENT_SPECULATIVE_LOADS) or self.config.has(
                SimDefense.NO_SPECULATIVE_FORWARDING
            )
            overrides[instruction.dst.name] = None if blocked else stale
        self._run_transient_window(pc + 1, overrides=overrides)
        self._squash()
        destination = instruction.dst.name if isinstance(instruction, FpExtract) else None
        return self._raise_fault(pc, "lazy FPU ownership fault", destination)

    # ------------------------------------------------------------------
    def _find_bypassable_store(self, load_address: int) -> Optional[StoreBufferEntry]:
        """An older unresolved store that the load would actually alias with."""
        for entry in self.store_buffer.unresolved_entries():
            if self._pending_store_addresses.get(entry.sequence) == load_address:
                return entry
        return None

    def _load_with_store_bypass(
        self,
        pc: int,
        instruction: Load,
        address: int,
        entry: StoreBufferEntry,
    ) -> int:
        """Spectre v4: the load speculatively reads stale memory, then is squashed."""
        stale_value, _ = self._read_memory_value(
            address, instruction.size, transient=True, speculative=True
        )
        self.stats.store_bypasses += 1
        forwarded: Optional[int] = stale_value
        if self.config.has(SimDefense.PREVENT_SPECULATIVE_LOADS) or self.config.has(
            SimDefense.NO_SPECULATIVE_FORWARDING
        ):
            forwarded = None
        self._run_transient_window(pc + 1, overrides={instruction.dst.name: forwarded})
        self._squash()
        # Address disambiguation completes: the store resolves and the load
        # architecturally receives the store's value.
        actual_address = self._pending_store_addresses.pop(entry.sequence)
        self.store_buffer.resolve(entry, actual_address)
        self.memory.memory.write(actual_address, entry.value, entry.size)
        self.cache.access(actual_address, partition=self.VICTIM_PARTITION)
        self.registers.write(instruction.dst.name, entry.value)
        return pc + 1

    def _faulting_load(self, pc: int, instruction: Load, address: int, fault: Fault) -> int:
        """Meltdown / Foreshadow / MDS-style faulting load."""
        transient_value: Optional[int]
        if fault is Fault.NOT_PRESENT:
            if self.cache.contains(address, self.VICTIM_PARTITION):
                # L1 Terminal Fault (Foreshadow): the PTE is not present but
                # the data still sits in the L1 cache and is forwarded anyway.
                transient_value = self.memory.memory.read(address, instruction.size)
            else:
                # The page is unmapped and uncached (e.g. KPTI): there is
                # nothing to read from memory, but a faulting load may still
                # sample stale data from internal buffers (the MDS attacks).
                transient_value = self._mds_forwarded_value()
        else:
            transient_value = self.memory.memory.read(address, instruction.size)
        if self.config.has(SimDefense.PREVENT_SPECULATIVE_LOADS):
            transient_value = None
            self.stats.speculative_loads_blocked += 1
        elif self.config.has(SimDefense.NO_SPECULATIVE_FORWARDING):
            transient_value = None
        self._run_transient_window(pc + 1, overrides={instruction.dst.name: transient_value})
        self._squash()
        return self._raise_fault(
            pc,
            f"{fault.value} on load of {address:#x}",
            instruction.dst.name,
        )

    def _mds_forwarded_value(self) -> Optional[int]:
        """Stale data a faulting load may pick up from internal buffers (MDS)."""
        recent = self.fill_buffer.most_recent()
        if recent is not None:
            return recent
        stale = self.load_port.stale_values()
        if stale:
            return stale[-1]
        buffered = self.store_buffer.latest_values(1)
        if buffered:
            return buffered[-1]
        return None

    def _raise_fault(self, pc: int, description: str, destination: Optional[str]) -> int:
        suppressed = self.config.suppress_faults
        self.stats.record_fault(description, suppressed)
        if not suppressed:
            return len(self.program)  # terminate
        if destination is not None:
            self.registers.write(destination, 0)
        if self.fault_recovery_pc is not None:
            return self.fault_recovery_pc
        return pc + 1

    # ==================================================================
    # Transient (speculative) execution
    # ==================================================================
    def _run_transient_window(
        self,
        start_pc: int,
        overrides: Optional[Dict[str, Optional[int]]] = None,
    ) -> int:
        """Execute transient instructions starting at ``start_pc``.

        ``overrides`` seeds scratch register values (e.g. the illegally read
        secret); a value of ``None`` marks the register as *blocked* -- its
        value is withheld from transient consumers (defense strategy 2).
        Returns the number of transient instructions executed.
        """
        self.stats.speculative_windows += 1
        snapshot = self.registers.snapshot()
        flags_snapshot = (self.flags.lhs, self.flags.rhs, self.flags_slow)
        blocked: Set[str] = set()
        self._speculative_fills: Set[int] = set()
        for name, value in (overrides or {}).items():
            if value is None:
                blocked.add(name)
            else:
                self.registers.write(name, value)

        executed = 0
        pc = start_pc
        limit = self.config.speculative_window
        try:
            while 0 <= pc < len(self.program) and executed < limit:
                instruction = self.program[pc]
                executed += 1
                self.stats.transient_instructions += 1
                pc = self._transient_step(pc, instruction, blocked)
        except _StopWindow:
            pass

        self.registers.restore(snapshot)
        self.flags.lhs, self.flags.rhs, self.flags_slow = flags_snapshot
        return executed

    def _transient_step(self, pc: int, instruction: Instruction, blocked: Set[str]) -> int:
        if isinstance(instruction, (Halt, Fence)):
            raise _StopWindow
        if isinstance(instruction, Branch):
            if FLAGS in blocked:
                raise _StopWindow
            taken = self.flags.evaluate(instruction.condition)
            return self.program.label_index(instruction.target.name) if taken else pc + 1
        if isinstance(instruction, Jmp):
            return self.program.label_index(instruction.target.name)
        if isinstance(instruction, IndirectJmp):
            if instruction.target.name in blocked:
                raise _StopWindow
            return self.registers.read(instruction.target.name)
        if isinstance(instruction, Call):
            return self.program.label_index(instruction.target.name)
        if isinstance(instruction, Ret):
            raise _StopWindow
        if isinstance(instruction, Load):
            self._transient_load(instruction, blocked)
            return pc + 1
        if isinstance(instruction, Store):
            # Speculative stores stay in the store buffer and never reach
            # memory; they do not create an observable state change here.
            return pc + 1
        if isinstance(instruction, Cmp):
            self._exec_cmp(instruction, transient=True, blocked=blocked)
            return pc + 1
        if isinstance(instruction, Rdmsr):
            # Nested privileged read inside a window: value forwarded unless blocked.
            if not self.supervisor and (
                self.config.has(SimDefense.PREVENT_SPECULATIVE_LOADS)
                or self.config.has(SimDefense.NO_SPECULATIVE_FORWARDING)
            ):
                blocked.add(instruction.dst.name)
            else:
                self.registers.write(instruction.dst.name, self.special_registers.read(instruction.msr))
                blocked.discard(instruction.dst.name)
            return pc + 1
        self._exec_simple(instruction, transient=True, blocked=blocked)
        return pc + 1

    def _transient_load(self, instruction: Load, blocked: Set[str]) -> None:
        address, _ = self._effective_address(instruction.address, blocked=blocked)
        if address is None:
            # The address depends on a blocked (withheld) value: the load
            # cannot even issue -- this is how strategy 2 stops the send.
            blocked.add(instruction.dst.name)
            self.stats.speculative_loads_blocked += 1
            return
        if self.config.has(SimDefense.PREVENT_SPECULATIVE_LOADS):
            blocked.add(instruction.dst.name)
            self.stats.speculative_loads_blocked += 1
            return
        if self.config.has(SimDefense.DELAY_SPECULATIVE_MISSES) and not self.cache.contains(
            address, self.VICTIM_PARTITION
        ):
            blocked.add(instruction.dst.name)
            self.stats.speculative_loads_blocked += 1
            return
        self.stats.speculative_loads += 1
        value, _ = self._read_memory_value(
            address, instruction.size, transient=True, speculative=True
        )
        if self.config.has(SimDefense.NO_SPECULATIVE_FORWARDING):
            blocked.add(instruction.dst.name)
            return
        self.registers.write(instruction.dst.name, value)
        blocked.discard(instruction.dst.name)

    def _squash(self) -> None:
        """Mis-speculation detected: discard speculative micro-architectural state
        where a defense says so (architectural state was never committed)."""
        self.stats.squashes += 1
        if self.config.has(SimDefense.CLEANUP_ON_SQUASH):
            rolled_back = self.cache.invalidate_speculative(getattr(self, "_speculative_fills", None))
            self.stats.speculative_fills_rolled_back += rolled_back
        self._speculative_fills = set()

    def _commit_speculation(self) -> None:
        """Speculation validated: speculative fills become permanent."""
        self.cache.commit_speculative()
        self._speculative_fills = set()

    # ==================================================================
    # Shared execution helpers
    # ==================================================================
    def _effective_address(
        self, operand: MemoryOperand, blocked: Set[str]
    ) -> Tuple[Optional[int], bool]:
        """(address, produced-by-slow-value).  ``None`` when a source is blocked."""
        address = 0
        slow = False
        if operand.symbol is not None:
            address += self.program.symbol_address(operand.symbol)
        if operand.base is not None:
            if operand.base.name in blocked:
                return None, False
            address += self.registers.read(operand.base.name)
            slow |= self.registers.is_slow(operand.base.name)
        if operand.index is not None:
            if operand.index.name in blocked:
                return None, False
            address += self.registers.read(operand.index.name) * operand.scale
            slow |= self.registers.is_slow(operand.index.name)
        address += operand.displacement
        return address & MASK64, slow

    def _source_value(
        self, source: Union[Register, Immediate, Label], blocked: Set[str]
    ) -> Optional[int]:
        if isinstance(source, Register):
            if source.name in blocked:
                return None
            return self.registers.read(source.name)
        if isinstance(source, Immediate):
            return source.value
        return self.program.symbol_address(source.name)

    def _read_memory_value(
        self, address: int, size: int, *, transient: bool, speculative: bool
    ) -> Tuple[int, int]:
        """Read memory through the cache hierarchy.  Returns (value, latency)."""
        forwarded = self.store_buffer.forward(address)
        if forwarded is not None:
            value = forwarded.value
            latency = self.config.cache_hit_latency
        else:
            value = self.memory.memory.read(address, size)
            fill = True
            if transient and self.config.has(SimDefense.INVISIBLE_SPECULATION):
                fill = False
            access = self.cache.access(
                address,
                partition=self.VICTIM_PARTITION,
                fill=fill,
                speculative=speculative,
            )
            latency = access.latency
            if fill and not access.hit:
                if speculative:
                    self.stats.speculative_fills += 1
                    self._speculative_fills = getattr(self, "_speculative_fills", set())
                    self._speculative_fills.add(address)
                self.fill_buffer.record_fill(self.cache.line_address(address), value)
        self.load_port.record(value)
        return value, latency

    def _exec_cmp(self, instruction: Cmp, *, transient: bool, blocked: Set[str]) -> None:
        if instruction.lhs.name in blocked:
            blocked.add(FLAGS)
            return
        lhs = self.registers.read(instruction.lhs.name)
        lhs_slow = self.registers.is_slow(instruction.lhs.name)
        rhs_slow = False
        if isinstance(instruction.rhs, MemoryOperand):
            address, _ = self._effective_address(instruction.rhs, blocked=blocked)
            if address is None:
                blocked.add(FLAGS)
                return
            rhs, latency = self._read_memory_value(
                address, 8, transient=transient, speculative=transient
            )
            rhs_slow = latency >= self.config.cache_miss_latency
            if not transient:
                self.stats.cycles += latency
        elif isinstance(instruction.rhs, Register):
            if instruction.rhs.name in blocked:
                blocked.add(FLAGS)
                return
            rhs = self.registers.read(instruction.rhs.name)
            rhs_slow = self.registers.is_slow(instruction.rhs.name)
        else:
            rhs = instruction.rhs.value
        self.flags.lhs, self.flags.rhs = lhs, rhs
        self.flags_slow = lhs_slow or rhs_slow
        blocked.discard(FLAGS)

    def _exec_simple(self, instruction: Instruction, *, transient: bool, blocked: Set[str]) -> None:
        """Instructions with no speculation trigger of their own."""
        if isinstance(instruction, Mov):
            value = self._source_value(instruction.src, blocked)
            if value is None:
                blocked.add(instruction.dst.name)
                return
            slow = isinstance(instruction.src, Register) and self.registers.is_slow(
                instruction.src.name
            )
            self.registers.write(instruction.dst.name, value, slow=slow)
            blocked.discard(instruction.dst.name)
            return
        if isinstance(instruction, Alu):
            self._exec_alu(instruction, blocked)
            return
        if isinstance(instruction, Clflush):
            address, _ = self._effective_address(instruction.address, blocked=blocked)
            if address is not None:
                self.cache.flush_address(address)
            return
        if isinstance(instruction, Rdtsc):
            self.registers.write(instruction.dst.name, self.stats.cycles)
            blocked.discard(instruction.dst.name)
            return
        if isinstance(instruction, FpLoad):
            address, _ = self._effective_address(instruction.address, blocked=blocked)
            if address is None:
                blocked.add(instruction.dst.name)
                return
            value, latency = self._read_memory_value(
                address, 8, transient=transient, speculative=transient
            )
            self.fpu.write(instruction.dst.name, value)
            self.fpu.owner = self.context_id
            return
        if isinstance(instruction, FpExtract):
            if instruction.src.name in blocked:
                blocked.add(instruction.dst.name)
                return
            self.registers.write(instruction.dst.name, self.fpu.read(instruction.src.name))
            blocked.discard(instruction.dst.name)
            return
        if isinstance(instruction, (Nop, Fence, Halt)):
            return
        if isinstance(instruction, Load):
            # Only reached architecturally via _step; transient loads go
            # through _transient_load.
            raise AssertionError("loads must be handled by the stepping logic")
        raise NotImplementedError(f"unsupported instruction {instruction!r}")

    def _exec_alu(self, instruction: Alu, blocked: Set[str]) -> None:
        if instruction.dst.name in blocked:
            return
        source = self._source_value(instruction.src, blocked)
        if source is None:
            blocked.add(instruction.dst.name)
            return
        value = self.registers.read(instruction.dst.name)
        op = instruction.op
        if op == "add":
            result = value + source
        elif op == "sub":
            result = value - source
        elif op == "and":
            result = value & source
        elif op == "or":
            result = value | source
        elif op == "xor":
            result = value ^ source
        elif op == "shl":
            result = value << (source & 63)
        elif op == "shr":
            result = value >> (source & 63)
        elif op == "imul":
            result = value * source
        else:  # pragma: no cover - guarded by Alu.__post_init__
            raise NotImplementedError(op)
        slow = self.registers.is_slow(instruction.dst.name) or (
            isinstance(instruction.src, Register) and self.registers.is_slow(instruction.src.name)
        )
        self.registers.write(instruction.dst.name, result & MASK64, slow=slow)
        self.flags.lhs, self.flags.rhs = result & MASK64, 0
        blocked.discard(instruction.dst.name)
