"""The graph tool's near-linear rules against the all-pairs rules they replace.

The builder chains fence edges (each fence links to the instructions up to
its neighbouring fences, and transitivity gives the rest) and finds every
bounds-check guard in one forward pass.  The earlier rules are kept below
as references: every fence linked to every earlier and every later
instruction, and a prefix rescan per register-indexed load.  Over the
Listing-1/2 fixtures, the exploit programs, every fuzz shape, seeded
multi-gadget victims and their patched versions:

* adding every all-pairs fence edge to the chained graph changes no
  ancestor/descendant mask -- reachability is unchanged;
* findings, racing pairs and verdicts equal those of a graph built from the
  reference edges;
* the one-pass scan finds the same secret accesses as the prefix rescan.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro import exploits
from repro.core import DependencyKind
from repro.defenses.evaluation import attack_succeeds
from repro.engine import Engine
from repro.fuzz.generator import (
    CHANNELS,
    FENCES,
    MAX_DELAY,
    SOURCES,
    GadgetShape,
    build_program,
)
from repro.graphtool import AuthorizationKind, find_secret_accesses, patch_program
from repro.graphtool.analyzer import analyze_build
from repro.graphtool.builder import AttackGraphBuilder, BuildResult
from repro.graphtool.classify import SecretAccessSite
from repro.isa import assemble, dependency
from repro.isa.dependency import InstructionDependency
from repro.isa.instructions import Branch, Cmp, FpExtract, Rdmsr, Store
from repro.isa.program import Program


# ---------------------------------------------------------------------------
# The reference rules
# ---------------------------------------------------------------------------
def reference_fence_dependencies(program: Program) -> List[InstructionDependency]:
    """All-pairs fence edges: every fence to and from every other instruction."""
    dependencies: List[InstructionDependency] = []
    for index, instruction in enumerate(program):
        if not instruction.is_serializing:
            continue
        for earlier in range(index):
            dependencies.append(
                InstructionDependency(earlier, index, DependencyKind.FENCE, detail="before fence")
            )
        for later in range(index + 1, len(program)):
            dependencies.append(
                InstructionDependency(index, later, DependencyKind.FENCE, detail="after fence")
            )
    return dependencies


def reference_guarding_branch(
    program: Program, access_index: int, address_registers: Set[str]
) -> Optional[int]:
    """The prefix rescan: the latest branch whose preceding ``cmp`` reads an address register."""
    cmp_for_branch: Optional[int] = None
    guard: Optional[int] = None
    for index in range(access_index):
        instruction = program[index]
        if isinstance(instruction, Cmp):
            cmp_for_branch = index
        elif isinstance(instruction, Branch):
            if cmp_for_branch is not None:
                if program[cmp_for_branch].reads_registers() & address_registers:
                    guard = index
    return guard


def reference_secret_accesses(program: Program) -> List[SecretAccessSite]:
    """``find_secret_accesses`` with a prefix rescan per register-indexed load."""
    protected = {symbol.name for symbol in program.protected_symbols()}
    kernel = {name for name, symbol in program.symbols.items() if symbol.kernel}
    sites: List[SecretAccessSite] = []
    store_seen_with_unknown_address = False
    for index, instruction in enumerate(program):
        if isinstance(instruction, Store) and instruction.address.registers:
            store_seen_with_unknown_address = True
        if isinstance(instruction, Rdmsr):
            sites.append(SecretAccessSite(index, "privileged system register read", index,
                                          AuthorizationKind.MSR_PRIVILEGE_CHECK))
            continue
        if isinstance(instruction, FpExtract):
            sites.append(SecretAccessSite(index, "read of lazily-switched FPU state", index,
                                          AuthorizationKind.FPU_OWNER_CHECK))
            continue
        operand = instruction.memory_read
        if operand is None:
            continue
        symbol_name = operand.symbol
        if symbol_name is not None and (symbol_name in protected or symbol_name in kernel):
            sites.append(SecretAccessSite(index, f"direct access to protected symbol {symbol_name!r}",
                                          index, AuthorizationKind.PAGE_PRIVILEGE_CHECK))
            continue
        if operand.registers:
            guard = reference_guarding_branch(program, index, set(operand.registers))
            if guard is not None:
                sites.append(SecretAccessSite(index, "register-indexed access guarded by a bounds check",
                                              guard, AuthorizationKind.BOUNDS_CHECK_BRANCH))
                continue
            if store_seen_with_unknown_address:
                sites.append(SecretAccessSite(
                    index, "load that may bypass an older store with unresolved address",
                    index, AuthorizationKind.STORE_LOAD_DISAMBIGUATION))
    return sites


def reference_build(program: Program) -> BuildResult:
    """The builder over the all-pairs fence edges."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dependency, "fence_dependencies", reference_fence_dependencies)
        return AttackGraphBuilder(program).build()


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------
def victim_program(seed: int, gadgets: int) -> Program:
    """A seeded victim of Listing-1/2 gadgets, some behind an ``lfence``.

    Gadget kinds: ``bounds`` (Listing 1), ``fenced`` (Listing 1 with an
    ``lfence`` after the check), ``kernel`` (Listing 2) and ``public`` (a
    constant-index load); the seed picks the mix and the order.
    """
    rng = random.Random(seed)
    kinds = [rng.choice(("bounds", "fenced", "kernel", "public")) for _ in range(gadgets)]
    data = ["probe_array: address=0x1000000 size=1048576 shared"]
    text = ["    clflush [probe_array]"]
    for index, kind in enumerate(kinds):
        base = 0x200000 + index * 0x1000
        if kind == "kernel":
            address = 0xFFFF0000 + index * 0x100
            data.append(f"kernel_{index}: address={address:#x} size=64 kernel protected")
            text.append(f"    mov rax, byte [kernel_{index}]")
        elif kind == "public":
            data.append(f"public_{index}: address={base:#x} size=16")
            text.append(f"    mov rax, byte [public_{index} + {rng.randrange(16)}]")
        else:
            data.append(f"victim_{index}: address={base:#x} size=16")
            data.append(f"secret_{index}: address={base + 0x48:#x} size=1 protected")
            data.append(f"size_{index}: address={0x400000 + index * 0x100:#x} size=8")
            text.append(f"    cmp rdx, [size_{index}]")
            text.append(f"    ja done_{index}")
            if kind == "fenced":
                text.append("    lfence")
            text.append(f"    mov rax, byte [victim_{index} + rdx]")
        text.append("    shl rax, 12")
        text.append("    mov rbx, [probe_array + rax]")
        if kind in ("bounds", "fenced"):
            text.append(f"done_{index}:")
    source = "\n".join([".data", *data, ".text", *text, "    hlt"])
    return assemble(source, name=f"victim-{seed}-{gadgets}")


EXPLOIT_PROGRAMS = (
    "spectre_v1_program",
    "spectre_v2_program",
    "spectre_rsb_program",
    "spectre_v4_program",
    "spectre_v3a_program",
    "meltdown_program",
    "foreshadow_program",
    "lazy_fp_program",
    "mds_attacker_program",
    "mds_victim_program",
)

VICTIM_GADGETS = (1, 2, 3, 4, 5, 8, 12, 16, 24, 32, 48, 64)


def corpus() -> Dict[str, Program]:
    programs: Dict[str, Program] = {}
    for name in EXPLOIT_PROGRAMS:
        programs[name] = getattr(exploits, name)()
    for axes in itertools.product(SOURCES, range(MAX_DELAY + 1), CHANNELS, FENCES):
        shape = GadgetShape(*axes)
        programs[f"fuzz:{shape.describe()}"] = build_program(shape)
    for gadgets in VICTIM_GADGETS:
        programs[f"victim-{gadgets}"] = victim_program(seed=gadgets, gadgets=gadgets)
    return programs


CORPUS = corpus()


ENGINE = Engine()

#: Programs to patch: the fenced fuzz shapes patch to their unfenced twins.
PATCH_INPUTS = sorted(
    name for name in CORPUS if not name.startswith("fuzz:") or "fence=none" in name
)


def patched(name: str) -> Program:
    """``patch_program``'s output: one fence per software authorization."""
    return patch_program(CORPUS[name], engine=ENGINE).patched


def fences_of(program: Program) -> int:
    return sum(1 for instruction in program if instruction.is_serializing)


def test_corpus_covers_fences_and_patches():
    """The corpus is not vacuous: it holds multi-fence programs and patches."""
    fences = {name: fences_of(program) for name, program in CORPUS.items()}
    assert max(fences.values()) >= 8
    assert sum(1 for count in fences.values() if count >= 2) >= 5
    grown = [name for name in PATCH_INPUTS if fences_of(patched(name)) > fences[name]]
    assert len(grown) >= 25


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------
def assert_matches_reference(program: Program) -> None:
    build = AttackGraphBuilder(program).build()
    reference = reference_build(program)
    graph = build.graph

    # Reachability: the all-pairs fence edges are implied by the chain.
    extended = graph.copy()
    for edge in reference.graph.edges:
        if edge.kind is DependencyKind.FENCE:
            extended.add_dependency(edge)
    assert extended._anc == graph._anc
    assert extended._desc == graph._desc

    # Findings, racing pairs and verdicts.
    report = analyze_build(build)
    expected = analyze_build(reference)
    assert report.findings == expected.findings
    assert report.total_racing_pairs == expected.total_racing_pairs
    assert graph.all_racing_pairs() == reference.graph.all_racing_pairs()
    assert attack_succeeds(graph) == attack_succeeds(reference.graph)
    assert report.is_meltdown_type == expected.is_meltdown_type

    # The one-pass guard scan.
    assert find_secret_accesses(program) == reference_secret_accesses(program)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_chained_build_matches_all_pairs_reference(name):
    assert_matches_reference(CORPUS[name])


@pytest.mark.parametrize("name", PATCH_INPUTS)
def test_patched_build_matches_all_pairs_reference(name):
    assert_matches_reference(patched(name))


def test_listing_fixtures_match_reference(listing1_program, listing2_program):
    patched = patch_program(listing1_program, engine=Engine()).patched
    assert sum(1 for instruction in patched if instruction.is_serializing) == 1
    for program in (listing1_program, listing2_program, patched):
        assert_matches_reference(program)


#: Instruction templates for random programs: compares and branches in any
#: order (so a guard's ``cmp`` may be far from its branch, or read another
#: register), register-indexed loads and stores, fences, direct protected
#: and kernel loads.
TEMPLATES = (
    "cmp {a}, {b}",
    "cmp {a}, [size]",
    "cmp {a}, [size + {b}]",
    "ja done",
    "jb done",
    "jmp done",
    "mov {a}, byte [array + {b}]",
    "mov {a}, [array + {a} + {b}*8]",
    "mov {a}, [probe + {b}]",
    "mov [array + {a}], {b}",
    "shl {a}, 12",
    "lfence",
    "mov {a}, byte [secret]",
    "mov {a}, [kernel_data]",
    "clflush [probe]",
)
REGISTERS = ("rax", "rbx", "rcx", "rdx")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(TEMPLATES), st.sampled_from(REGISTERS), st.sampled_from(REGISTERS)
        ),
        min_size=1,
        max_size=24,
    )
)
def test_random_programs_match_reference(lines):
    text = "\n".join(
        [
            ".data",
            "probe: address=0x1000000 size=1048576 shared",
            "array: address=0x200000 size=16",
            "size: address=0x210000 size=8",
            "secret: address=0x200048 size=1 protected",
            "kernel_data: address=0xffff0000 size=64 kernel protected",
            ".text",
            *(template.format(a=a, b=b) for template, a, b in lines),
            "done:",
            "    hlt",
        ]
    )
    assert_matches_reference(assemble(text, name="random"))


def test_guard_is_the_latest_branch_over_all_address_registers():
    program = assemble(
        "\n".join(
            [
                ".data",
                "array: address=0x200000 size=16",
                "size: address=0x210000 size=8",
                ".text",
                "cmp rax, [size]",  # 0
                "ja done",  # 1: guards rax
                "cmp rbx, [size]",  # 2
                "shl rcx, 1",  # 3
                "jb done",  # 4: guards rbx (its cmp is two instructions back)
                "cmp rcx, [size]",  # 5
                "ja done",  # 6: guards rcx only
                "mov rdx, [array + rax + rbx*8]",  # 7: latest of 1 and 4
                "mov rdx, [array + rax]",  # 8: not guarded by 4 or 6
                "done:",
                "hlt",
            ]
        ),
        name="guards",
    )
    guards = {site.index: site.authorization_index for site in find_secret_accesses(program)}
    assert guards == {7: 4, 8: 1}
    assert find_secret_accesses(program) == reference_secret_accesses(program)


def test_chained_fence_edges_are_a_subset_of_the_reference():
    """Chaining only drops edges: every chained edge is an all-pairs edge."""
    for gadgets in (8, 32):
        program = victim_program(seed=gadgets, gadgets=gadgets)
        chained = {(d.source, d.target) for d in dependency.fence_dependencies(program)}
        reference = {(d.source, d.target) for d in reference_fence_dependencies(program)}
        assert chained <= reference
        assert len(chained) < len(reference)
