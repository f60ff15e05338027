"""Tests for static dependency extraction."""

from __future__ import annotations

import pytest

from test_graphtool_reference import victim_program

from repro.core import DependencyKind
from repro.isa import (
    all_dependencies,
    assemble,
    control_dependencies,
    dependency_summary,
    fence_dependencies,
    memory_dependencies,
    register_data_dependencies,
)


@pytest.fixture
def simple_program():
    return assemble(
        """
        .text
        mov rax, 1
        add rax, 2
        mov rbx, rax
        hlt
        """,
        name="simple",
    )


class TestDataDependencies:
    def test_raw_chain(self, simple_program):
        deps = {(d.source, d.target) for d in register_data_dependencies(simple_program)}
        assert (0, 1) in deps  # add reads rax written by mov
        assert (1, 2) in deps  # mov rbx, rax reads the add's result

    def test_latest_writer_wins(self):
        program = assemble(".text\nmov rax, 1\nmov rax, 2\nmov rbx, rax\nhlt")
        deps = {(d.source, d.target) for d in register_data_dependencies(program)}
        assert (1, 2) in deps and (0, 2) not in deps

    def test_listing1_secret_chain(self, listing1_program):
        """Load S (index 4) feeds the shift (5) which feeds Load R (6)."""
        deps = {(d.source, d.target) for d in register_data_dependencies(listing1_program)}
        assert (4, 5) in deps
        assert (5, 6) in deps

    def test_address_dependencies_tagged(self, listing1_program):
        from repro.isa import address_dependencies

        address_deps = address_dependencies(listing1_program)
        assert any(
            dep.target == 6 and dep.kind is DependencyKind.ADDRESS for dep in address_deps
        )


class TestControlDependencies:
    def test_instructions_after_branch_depend_on_it(self, listing1_program):
        deps = control_dependencies(listing1_program)
        branch_index = 3
        targets = {dep.target for dep in deps if dep.source == branch_index}
        assert {4, 5, 6, 7} <= targets

    def test_no_control_dependencies_without_branches(self, simple_program):
        assert control_dependencies(simple_program) == []


class TestMemoryAndFences:
    def test_store_to_load_same_symbol(self):
        program = assemble(".text\nmov [buffer], rax\nmov rbx, [buffer]\nhlt")
        deps = memory_dependencies(program)
        assert any(dep.source == 0 and dep.target == 1 for dep in deps)

    def test_store_to_load_different_symbols_not_dependent(self):
        program = assemble(".text\nmov [a], rax\nmov rbx, [b]\nhlt")
        assert memory_dependencies(program) == []

    def test_unknown_address_aliases_everything(self):
        program = assemble(".text\nmov [rax], rbx\nmov rcx, [buffer]\nhlt")
        assert memory_dependencies(program)

    def test_fence_orders_before_and_after(self):
        program = assemble(".text\nmov rax, 1\nlfence\nmov rbx, 2\nhlt")
        deps = fence_dependencies(program)
        pairs = {(d.source, d.target) for d in deps}
        assert (0, 1) in pairs  # before the fence
        assert (1, 2) in pairs and (1, 3) in pairs  # after the fence

        # Two fences chain: the first fence's after-edges stop at the second
        # fence, and the second fence's before-edges start at the first.
        program = assemble(
            ".text\nmov rax, 1\nlfence\nmov rbx, 2\nmfence\nmov rcx, 3\nhlt"
        )
        pairs = {(d.source, d.target) for d in fence_dependencies(program)}
        assert {target for source, target in pairs if source == 1} == {2, 3}
        assert {source for source, target in pairs if target == 1} == {0}
        assert {source for source, target in pairs if target == 3} == {1, 2}
        assert {target for source, target in pairs if source == 3} == {4, 5}

    def test_fence_dependencies_are_linear_in_program_size(self):
        """At most 2n fence edges for n instructions, however many fences.

        A count, not a clock: every instruction is the source of at most one
        before-fence edge and the target of at most one after-fence edge.
        """
        program = victim_program(seed=64, gadgets=64)
        fences = sum(1 for instruction in program if instruction.is_serializing)
        assert fences >= 8  # all-pairs edges would number fences * (n - 1)
        assert len(fence_dependencies(program)) <= 2 * len(program)

    def test_all_dependencies_deduplicated(self, listing1_program):
        deps = all_dependencies(listing1_program)
        keys = {(d.source, d.target, d.kind) for d in deps}
        assert len(keys) == len(deps)

    def test_dependency_summary_counts(self, listing1_program):
        summary = dependency_summary(listing1_program)
        assert summary["data"] >= 2
        assert summary["control"] >= 4
