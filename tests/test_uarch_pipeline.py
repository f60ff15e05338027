"""Tests for the speculative pipeline simulator."""

from __future__ import annotations

import pytest

from repro.isa import assemble
from repro.uarch import SimDefense, SpeculativeCPU, UarchConfig


def make_cpu(text: str, config: UarchConfig = UarchConfig(), **kwargs) -> SpeculativeCPU:
    return SpeculativeCPU(assemble(text, name="test"), config, **kwargs)


class TestArchitecturalExecution:
    def test_mov_and_alu(self):
        cpu = make_cpu(".text\nmov rax, 5\nadd rax, 3\nshl rax, 2\nhlt")
        result = cpu.run()
        assert result.halted
        assert cpu.get_register("rax") == 32

    def test_all_alu_ops(self):
        cpu = make_cpu(
            ".text\nmov rax, 12\nsub rax, 2\nand rax, 0xf\nor rax, 0x20\nxor rax, 1\n"
            "imul rax, 2\nshr rax, 1\nhlt"
        )
        cpu.run()
        assert cpu.get_register("rax") == ((((12 - 2) & 0xF) | 0x20) ^ 1) * 2 >> 1

    def test_mov_symbol_loads_address(self):
        cpu = make_cpu(".data\ntable: address=0x4000 size=8\n.text\nmov rbx, table\nhlt")
        cpu.run()
        assert cpu.get_register("rbx") == 0x4000

    def test_store_then_load(self):
        cpu = make_cpu(
            ".data\nslot: address=0x4000 size=8\n.text\nmov rax, 0x77\nmov [slot], rax\n"
            "mov rbx, [slot]\nhlt"
        )
        cpu.run()
        assert cpu.get_register("rbx") == 0x77

    def test_branch_taken_and_not_taken(self):
        taken = make_cpu(".text\nmov rax, 9\ncmp rax, 5\nja skip\nmov rbx, 1\nskip:\nhlt")
        taken.run()
        assert taken.get_register("rbx") == 0

        not_taken = make_cpu(".text\nmov rax, 3\ncmp rax, 5\nja skip\nmov rbx, 1\nskip:\nhlt")
        not_taken.run()
        assert not_taken.get_register("rbx") == 1

    def test_unconditional_jump(self):
        cpu = make_cpu(".text\njmp end\nmov rax, 1\nend:\nhlt")
        cpu.run()
        assert cpu.get_register("rax") == 0

    def test_call_and_ret(self):
        cpu = make_cpu(".text\ncall func\nmov rbx, 2\nhlt\nfunc:\nmov rax, 1\nret")
        cpu.run()
        assert cpu.get_register("rax") == 1
        assert cpu.get_register("rbx") == 2

    def test_indirect_jump_with_known_target(self):
        cpu = make_cpu(".text\nmov r11, 3\njmp r11\nmov rax, 1\nhlt")
        cpu.run()
        assert cpu.get_register("rax") == 0

    def test_rdtsc_monotonic(self):
        cpu = make_cpu(".data\nbuf: address=0x4000 size=64\n.text\nrdtsc r8\nmov rax, [buf]\nrdtsc r9\nhlt")
        cpu.run()
        assert cpu.get_register("r9") > cpu.get_register("r8")

    def test_clflush_evicts_line(self):
        cpu = make_cpu(
            ".data\nbuf: address=0x4000 size=64\n.text\nmov rax, [buf]\nclflush [buf]\nhlt"
        )
        cpu.run()
        assert not cpu.cache.contains(0x4000)

    def test_max_instruction_budget(self):
        cpu = make_cpu(".text\nstart:\nmov rax, 1\njmp start", UarchConfig(max_instructions=50))
        result = cpu.run()
        assert not result.halted
        assert result.instructions == 50

    def test_cache_miss_marks_register_slow_and_hit_does_not(self):
        cpu = make_cpu(".data\nbuf: address=0x4000 size=64\n.text\nmov rax, [buf]\nmov rbx, [buf]\nhlt")
        cpu.run()
        assert not cpu.registers.is_slow("rbx")

    def test_supervisor_can_read_kernel_memory(self):
        cpu = make_cpu(
            ".data\nksym: address=0xffff0000 size=64 kernel\n.text\nmov rax, byte [ksym]\nhlt",
            supervisor=True,
        )
        cpu.write_memory(0xFFFF0000, 0x33, 1)
        cpu.run()
        assert cpu.get_register("rax") == 0x33
        assert cpu.stats.faults == 0


class TestSpeculationAndTransientLeaks:
    SPECTRE_TEXT = """
    .data
    probe:  address=0x1000000 size=1048576 shared
    arr:    address=0x200000  size=16
    size:   address=0x210000  size=8
    secret: address=0x200048  size=1 protected
    .text
    victim:
    cmp rdx, [size]
    ja done
    mov rax, byte [arr + rdx]
    shl rax, 12
    mov rbx, [probe + rax]
    done:
    hlt
    """

    def _trained_cpu(self, config=UarchConfig()):
        cpu = SpeculativeCPU(assemble(self.SPECTRE_TEXT, name="spectre"), config)
        cpu.write_memory(0x210000, 16, 8)
        cpu.write_memory(0x200048, 0x5A, 1)
        for _ in range(3):
            cpu.set_register("rdx", 1)
            cpu.run("victim")
        return cpu

    def _attack(self, cpu):
        cpu.flush_range(0x1000000, 256 * 4096)
        cpu.flush_symbol("size")
        cpu.set_register("rdx", 0x48)
        cpu.run("victim")

    def test_untrained_branch_does_not_speculate(self):
        cpu = SpeculativeCPU(assemble(self.SPECTRE_TEXT, name="spectre"), UarchConfig())
        cpu.write_memory(0x210000, 16, 8)
        cpu.set_register("rdx", 0x48)
        cpu.run("victim")
        assert cpu.stats.speculative_windows == 0
        assert not cpu.cache.contains(0x1000000 + 0x5A * 4096)

    def test_transient_leak_fills_secret_indexed_line(self):
        cpu = self._trained_cpu()
        self._attack(cpu)
        assert cpu.stats.speculative_windows == 1
        assert cpu.stats.squashes == 1
        assert cpu.cache.contains(0x1000000 + 0x5A * 4096)
        # Architectural state was rolled back: rax is untouched by the squash.
        assert cpu.get_register("rbx") == 0

    def test_architectural_result_out_of_bounds_branch_taken(self):
        cpu = self._trained_cpu()
        self._attack(cpu)
        assert cpu.get_register("rax") != 0x5A

    def test_correct_prediction_commits_without_squash(self):
        cpu = self._trained_cpu()
        cpu.flush_symbol("size")
        cpu.set_register("rdx", 1)  # in bounds: prediction (not taken) is correct
        cpu.run("victim")
        assert cpu.stats.speculative_windows == 1
        assert cpu.stats.squashes == 0

    def test_prevent_speculative_loads_blocks_the_leak(self):
        config = UarchConfig().with_defenses(SimDefense.PREVENT_SPECULATIVE_LOADS)
        cpu = self._trained_cpu(config)
        self._attack(cpu)
        assert not cpu.cache.contains(0x1000000 + 0x5A * 4096)
        assert cpu.stats.speculative_loads_blocked > 0

    def test_no_forwarding_blocks_the_send(self):
        config = UarchConfig().with_defenses(SimDefense.NO_SPECULATIVE_FORWARDING)
        cpu = self._trained_cpu(config)
        self._attack(cpu)
        assert not cpu.cache.contains(0x1000000 + 0x5A * 4096)

    def test_invisible_speculation_leaves_no_cache_trace(self):
        config = UarchConfig().with_defenses(SimDefense.INVISIBLE_SPECULATION)
        cpu = self._trained_cpu(config)
        self._attack(cpu)
        assert not cpu.cache.contains(0x1000000 + 0x5A * 4096)

    def test_cleanup_on_squash_rolls_back_fills(self):
        config = UarchConfig().with_defenses(SimDefense.CLEANUP_ON_SQUASH)
        cpu = self._trained_cpu(config)
        self._attack(cpu)
        assert not cpu.cache.contains(0x1000000 + 0x5A * 4096)
        assert cpu.stats.speculative_fills_rolled_back > 0

    def test_fence_in_program_stops_transient_window(self):
        text = self.SPECTRE_TEXT.replace("ja done\n", "ja done\n    lfence\n")
        cpu = SpeculativeCPU(assemble(text, name="fenced"), UarchConfig())
        cpu.write_memory(0x210000, 16, 8)
        cpu.write_memory(0x200048, 0x5A, 1)
        for _ in range(3):
            cpu.set_register("rdx", 1)
            cpu.run("victim")
        cpu.flush_range(0x1000000, 256 * 4096)
        cpu.flush_symbol("size")
        cpu.set_register("rdx", 0x48)
        cpu.run("victim")
        assert not cpu.cache.contains(0x1000000 + 0x5A * 4096)


class TestFaultingLoads:
    MELTDOWN_TEXT = """
    .data
    probe:  address=0x1000000 size=1048576 shared
    ksecret: address=0xffff0000 size=64 kernel protected
    .text
    attack:
    mov rax, byte [ksecret]
    shl rax, 12
    mov rbx, [probe + rax]
    recover:
    hlt
    """

    def _cpu(self, config=UarchConfig()):
        cpu = SpeculativeCPU(assemble(self.MELTDOWN_TEXT, name="meltdown"), config)
        cpu.write_memory(0xFFFF0000, 0x41, 1)
        cpu.set_fault_handler("recover")
        return cpu

    def test_fault_recorded_and_suppressed(self):
        cpu = self._cpu()
        result = cpu.run("attack")
        assert result.halted
        assert cpu.stats.faults == 1
        assert cpu.stats.faults_suppressed == 1
        assert cpu.get_register("rax") == 0  # architectural result of the faulting load

    def test_transient_leak_through_the_cache(self):
        cpu = self._cpu()
        cpu.run("attack")
        assert cpu.cache.contains(0x1000000 + 0x41 * 4096)

    def test_unsuppressed_fault_terminates(self):
        config = UarchConfig(suppress_faults=False)
        cpu = self._cpu(config)
        result = cpu.run("attack")
        assert result.instructions == 1
        assert cpu.stats.faults == 1

    def test_kernel_isolation_removes_the_leak(self):
        config = UarchConfig().with_defenses(SimDefense.KERNEL_ISOLATION)
        cpu = self._cpu(config)
        cpu.run("attack")
        assert not cpu.cache.contains(0x1000000 + 0x41 * 4096)

    def test_fault_handler_skips_the_rest_of_the_attack_block(self):
        cpu = self._cpu()
        cpu.run("attack")
        # rbx would have been written by the probe load had execution continued
        # architecturally past the fault.
        assert cpu.get_register("rbx") == 0


class TestStoreBypassAndContextSwitch:
    V4_TEXT = """
    .data
    probe:    address=0x1000000 size=1048576 shared
    slot_ptr: address=0x300000 size=8
    slot:     address=0x400000 size=8 protected
    .text
    victim:
    mov r10, [slot_ptr]
    mov [r10], 0
    mov rax, byte [slot]
    shl rax, 12
    mov rbx, [probe + rax]
    hlt
    """

    def _cpu(self, config=UarchConfig()):
        cpu = SpeculativeCPU(assemble(self.V4_TEXT, name="v4"), config)
        cpu.write_memory(0x300000, 0x400000, 8)
        cpu.write_memory(0x400000, 0x66, 1)
        cpu.flush_symbol("slot_ptr")
        return cpu

    def test_store_bypass_leaks_stale_value(self):
        cpu = self._cpu()
        cpu.run("victim")
        assert cpu.stats.store_bypasses == 1
        assert cpu.cache.contains(0x1000000 + 0x66 * 4096)
        # Architecturally the load sees the store's value.
        assert cpu.get_register("rax") == 0
        assert cpu.read_memory(0x400000, 1) == 0

    def test_ssbb_blocks_the_bypass(self):
        config = UarchConfig().with_defenses(SimDefense.NO_STORE_BYPASS)
        cpu = self._cpu(config)
        cpu.run("victim")
        assert cpu.stats.store_bypasses == 0
        assert not cpu.cache.contains(0x1000000 + 0x66 * 4096)

    def test_context_switch_flushes_predictors_only_with_defense(self):
        cpu = self._cpu()
        cpu.predictors.direction.train(3, True)
        cpu.context_switch(1)
        assert cpu.predictors.direction.has_entry(3)

        defended = self._cpu(UarchConfig().with_defenses(SimDefense.FLUSH_PREDICTORS))
        defended.predictors.direction.train(3, True)
        defended.context_switch(1)
        assert not defended.predictors.direction.has_entry(3)

    def test_partitioned_cache_hides_fills_from_receiver_probes(self):
        config = UarchConfig().with_defenses(SimDefense.PARTITIONED_CACHE)
        cpu = self._cpu(config)
        cpu.run("victim")
        leaked_line = 0x1000000 + 0x66 * 4096
        assert cpu.cache.contains(leaked_line, partition=SpeculativeCPU.VICTIM_PARTITION)
        assert cpu.probe_lines([leaked_line])[0] >= config.hit_threshold
