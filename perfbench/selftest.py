"""The benchmark's own test: every workload at a small size leaves nothing behind.

Run it from the repository root (it is not collected by the tier-1 suite)::

    python3 -m pytest perfbench/selftest.py -q

Each workload runs in this process through ``run.main`` with a short run,
untraced and traced; afterwards no child process, extra thread or listening
socket may remain, every output check must pass, and two traced runs with
the same seed must print identical fingerprints.
"""

from __future__ import annotations

import json
import threading

import pytest

import run

run.load_program()

from workloads import WORKLOADS  # noqa: E402 - needs the program on sys.path


def _run(capsys, *args: str) -> tuple:
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fingerprint = next(line for line in lines if line.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_leaves_nothing_running(workload, capsys):
    threads_before = set(threading.enumerate())
    children_before = set(run.child_pids())
    for trace in ("0", "1"):
        result, _ = _run(
            capsys, "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", trace,
        )
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(threading.enumerate()) == threads_before
        assert set(run.child_pids()) == children_before
        assert run.listening_sockets() == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_fingerprint(workload, capsys):
    args = ("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "1")
    _, first = _run(capsys, *args)
    _, second = _run(capsys, *args)
    assert first == second
