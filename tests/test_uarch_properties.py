"""Property-based tests for the simulator substrate and channels."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import cache_reference as reference
from repro.channels import CacheTimingSurface, FlushReloadChannel, PrimeProbeChannel
from repro.uarch import RegisterFile, SetAssociativeCache
from repro.uarch.registers import Flags

addresses = st.integers(min_value=0, max_value=0xFFFF_FFFF)


@given(st.lists(addresses, min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_cache_accessed_addresses_are_present_until_evicted(address_list):
    """After an access, the line is present unless a later fill evicted it."""
    cache = SetAssociativeCache(sets=8, ways=2, line_size=64)
    for address in address_list:
        cache.access(address)
        assert cache.contains(address)


@given(st.lists(addresses, min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_cache_flush_all_empties_the_cache(address_list):
    cache = SetAssociativeCache(sets=8, ways=2, line_size=64)
    for address in address_list:
        cache.access(address)
    cache.flush_all()
    assert cache.occupancy() == 0
    for address in address_list:
        assert not cache.contains(address)


@given(st.lists(addresses, min_size=1, max_size=32), addresses)
@settings(max_examples=50, deadline=None)
def test_cache_occupancy_never_exceeds_capacity(address_list, extra):
    cache = SetAssociativeCache(sets=4, ways=2, line_size=64)
    for address in address_list + [extra]:
        cache.access(address)
    assert cache.occupancy() <= cache.sets * cache.ways


@st.composite
def cache_scenarios(draw):
    """A geometry, a warmed two-partition starting state and an address list.

    Set counts include non-powers of two; addresses cover a few tags per set
    so the starting state has conflicts, and the list repeats some of its
    addresses.
    """
    sets = draw(st.integers(min_value=1, max_value=12))
    ways = draw(st.integers(min_value=1, max_value=4))
    line_size = draw(st.sampled_from([16, 64]))
    address = st.integers(min_value=0, max_value=sets * line_size * (ways + 2) - 1)
    setup = draw(
        st.lists(
            st.tuples(address, st.integers(min_value=0, max_value=1), st.booleans(), st.booleans()),
            max_size=48,
        )
    )
    body = draw(st.lists(address, max_size=40))
    listed = body + body[: draw(st.integers(min_value=0, max_value=len(body)))]
    return (sets, ways, line_size), setup, listed


def _warmed_cache(geometry, setup) -> SetAssociativeCache:
    sets, ways, line_size = geometry
    cache = SetAssociativeCache(sets=sets, ways=ways, line_size=line_size)
    for address, partition, fill, speculative in setup:
        cache.access(address, partition, fill=fill, speculative=speculative)
    return cache


@given(cache_scenarios(), st.integers(min_value=0, max_value=1))
@settings(max_examples=150, deadline=None)
def test_probe_lines_equals_per_line_probes(scenario, partition):
    geometry, setup, listed = scenario
    bulk, per_line = _warmed_cache(geometry, setup), _warmed_cache(geometry, setup)
    stats = bulk.stats
    latencies = bulk.probe_lines(listed, partition)
    assert latencies == [reference.probe(per_line, address, partition) for address in listed]
    assert reference.cache_state(bulk) == reference.cache_state(per_line)
    assert bulk.stats is stats  # updated in place, never replaced


@given(cache_scenarios(), st.integers(min_value=0, max_value=200), st.integers(min_value=-8, max_value=400))
@settings(max_examples=150, deadline=None)
def test_flush_lines_equals_per_line_flushes(scenario, start, size):
    geometry, setup, listed = scenario
    bulk, per_line = _warmed_cache(geometry, setup), _warmed_cache(geometry, setup)
    stats = bulk.stats
    bulk.flush_lines(listed)
    for address in listed:
        reference.flush_address(per_line, address)
    assert reference.cache_state(bulk) == reference.cache_state(per_line)
    bulk.flush_range(start, size)
    reference.flush_range(per_line, start, size)
    assert reference.cache_state(bulk) == reference.cache_state(per_line)
    assert bulk.stats is stats


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=255),
    st.sampled_from([(0, 0), (0, 1)]),
)
@settings(max_examples=60, deadline=None)
def test_prime_probe_receive_equals_per_line_probes(sets, ways, value, partitions):
    sender, receiver = partitions
    bulk, per_line = (
        PrimeProbeChannel(
            SetAssociativeCache(sets=sets, ways=ways),
            sender_partition=sender,
            receiver_partition=receiver,
        )
        for _ in range(2)
    )
    for channel in (bulk, per_line):
        channel.prepare()
        channel.send(value)
    observation = bulk.receive()
    assert observation.latencies == reference.prime_probe_latencies(per_line)
    assert reference.cache_state(bulk.cache) == reference.cache_state(per_line.cache)


@given(st.integers(min_value=0, max_value=255), st.sampled_from([(0, 0), (0, 1)]))
@settings(max_examples=60, deadline=None)
def test_flush_reload_round_equals_per_line_round(value, partitions):
    sender, receiver = partitions
    bulk, per_line = (
        channel_cls(
            CacheTimingSurface(
                SetAssociativeCache(sets=64, ways=8, line_size=64),
                sender_partition=sender,
                receiver_partition=receiver,
            ),
            0x100_0000,
        )
        for channel_cls in (FlushReloadChannel, reference.PerLineFlushReload)
    )
    for channel in (bulk, per_line):
        channel.prepare()
        channel.prepare()  # a second pass over emptied sets still counts its flushes
        channel.send(value)
    got, want = bulk.receive(), per_line.receive()
    assert (got.value, got.latencies) == (want.value, want.latencies)
    assert reference.cache_state(bulk.surface.cache) == reference.cache_state(
        per_line.surface.cache
    )


@given(st.integers(min_value=0, max_value=255))
@settings(max_examples=60, deadline=None)
def test_flush_reload_roundtrip_recovers_any_byte(value):
    """The Flush+Reload channel is lossless for every byte value."""
    cache = SetAssociativeCache(sets=64, ways=8, line_size=64)
    channel = FlushReloadChannel(CacheTimingSurface(cache), 0x100_0000, entries=256)
    assert channel.transmit(value).value == value


@given(
    st.dictionaries(
        st.sampled_from(["rax", "rbx", "rcx", "rdx", "r8"]),
        st.integers(min_value=0, max_value=2**64 - 1),
        max_size=5,
    )
)
@settings(max_examples=50, deadline=None)
def test_register_file_snapshot_restore_roundtrip(values):
    registers = RegisterFile()
    for name, value in values.items():
        registers.write(name, value, slow=bool(value % 2))
    snapshot = registers.snapshot()
    for name in values:
        registers.write(name, 0)
    registers.restore(snapshot)
    for name, value in values.items():
        assert registers.read(name) == value
        assert registers.is_slow(name) == bool(value % 2)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_flags_condition_pairs_are_consistent(lhs, rhs):
    """Branch conditions and their complements never both hold."""
    flags = Flags(lhs=lhs, rhs=rhs)
    assert flags.evaluate("ja") != flags.evaluate("jbe")
    assert flags.evaluate("jae") != flags.evaluate("jb")
    assert flags.evaluate("je") != flags.evaluate("jne")
    assert flags.evaluate("je") == (lhs == rhs)
