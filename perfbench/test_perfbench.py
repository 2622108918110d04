"""The benchmark's own tests: reproducible corpora, exact counts, checks that bite.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from swapbribery import io as formats  # noqa: E402

WORK = HERE.parent / ".perfbench_work" / "tests"


def _corpus_files(name: str, seed: int, tag: str) -> dict[str, bytes]:
    directory = WORK / f"{name}-{seed}-{tag}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    corpus = workloads.Corpus(workloads.WORKLOADS[name], seed, directory, workloads.load_reference())
    ops = corpus.build()
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    files["<ops>"] = repr([(op.id, [a.replace(str(directory), "") for a in op.argv]) for op in ops]).encode()
    shutil.rmtree(directory)
    return files


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_writes_identical_corpus(name):
    first = _corpus_files(name, 7, "a")
    assert first == _corpus_files(name, 7, "b")
    assert first != _corpus_files(name, 8, "a")


def test_check_rejects_wrong_answers():
    op = workloads.Op("x", [], {"kind": "solve", "decision": True, "cost": "3", "cost_is_optimal": True})
    assert workloads.check(op, 0, "algorithm: flow\ndecision: yes\ncost: 3\n") is None
    assert workloads.check(op, 0, "algorithm: flow\ndecision: yes\ncost: 4\n") is not None
    assert workloads.check(op, 1, "algorithm: flow\ndecision: no\ncost: 3\n") is not None
    # ilp reports the cost of its witness, not an optimum: only the decision is checked.
    assert workloads.check(op, 0, "algorithm: ilp\ndecision: yes\ncost: 5\n") is None
    verify = workloads.Op("v", [], {"kind": "verify", "cost": "48"})
    assert workloads.check(verify, 0, "checked cost: 48\nsolution valid: yes\n") is None
    assert workloads.check(verify, 1, "checked cost: 49\nsolution valid: no\n") is not None


def test_kernel_check_needs_the_decision_kept(tmp_path):
    kernel = tmp_path / "kernel.sbe"
    instance = workloads.gen_random(6, 4, 3, seed=1, budget=2)
    decision = workloads.brute_topk(instance, caps=workloads.UNCAPPED, prune_to_budget=True).decision
    op = workloads.Op("k", [], {"kind": "kernelize", "path": str(kernel), "decision": decision})
    kernel.write_text(formats.serialize_election(instance))  # an instance is a kernel of itself
    assert workloads.check(op, 0, "") is None
    op.expect["decision"] = not decision
    assert workloads.check(op, 0, "") is not None


def test_kernel_check_carries_the_planted_witness_over(tmp_path):
    gadget = dataclasses.replace(workloads.WORKLOADS["pipeline-large"], families=(), gadgets=("2,2",))
    (generate, _, kernelize), = workloads.Corpus(gadget, 1, tmp_path, {})._gadget_chains(random.Random(1))
    for op in (generate, kernelize):
        assert workloads.execute(op.argv, workloads.ScaledClock(60))[0] == 0
    assert workloads.check(kernelize, 0, "") is None
    path = Path(kernelize.expect["path"])
    kernel = formats.parse_election(path.read_text())
    path.write_text(formats.serialize_election(dataclasses.replace(kernel, budget=kernel.budget - 1)))
    assert workloads.check(kernelize, 0, "") is not None


def test_exceptions_fail_and_keep_their_time():
    op = workloads.Op("x", [], {})
    assertion = run.judge(run.Run(op, None, "", 0.25, 0.2, 0.3, AssertionError("bound"), None), 10.0)
    assert (assertion.status, assertion.seconds) == ("wrong", 0.25)
    assert run.judge(run.Run(op, None, "", 0.25, 0.2, 0.3, ValueError("bad"), None), 10.0).status == "error"


def _traced_counts(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {key: m["value"] for key, m in metrics.items() if m["unit"] != "s"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    counts = _traced_counts(name)
    assert any(counts.values())
    assert counts == _traced_counts(name)
