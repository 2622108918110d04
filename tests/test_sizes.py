"""Inputs that ask for more than the workbench builds end in an error line, never a crash.

Each file runs through the command line in a fresh process with a timeout
and a 1 GB address-space limit, and must exit 2 with an ``error:`` line and
no traceback, or, where the workbench keeps the input small, exit 0.
"""

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from swapbribery import cli
from swapbribery.io import serialize_election
from swapbribery.reductions import gen_random

SRC = Path(__file__).resolve().parent.parent / "src"


def _one_gigabyte():
    """Run in the child only: its address space is limited, the test process's is not."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _run(*argv):
    """One ``swapbribery`` call in a fresh process under the limits."""
    return subprocess.run(
        [sys.executable, "-m", "swapbribery.cli", *map(str, argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=10,
        preexec_fn=_one_gigabyte,
    )


def _refused(*argv):
    """stderr of one ``swapbribery`` call that must exit 2 with one error line and no traceback."""
    done = _run(*argv)
    assert done.returncode == 2 and "Traceback" not in done.stderr, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    return done.stderr


@pytest.fixture(scope="module")
def m1700(tmp_path_factory):
    """One vote over 1,700 candidates: m! has more digits than Python formats."""
    path = tmp_path_factory.mktemp("sizes") / "m1700.sbe"
    path.write_text(serialize_election(gen_random(1700, 1, 1, seed=0)))
    return path


def test_the_ilp_names_m_not_m_factorial(m1700):
    assert _refused("solve", m1700, "--algorithm", "ilp") == "error: 1700! - 1 variables per vote class exceed cap 2000\n"


def test_bucklin_names_n_and_m_not_n_times_m_factorial(m1700, tmp_path):
    bucklin = tmp_path / "bucklin.sbe"
    bucklin.write_text(m1700.read_text().replace("rule k-approval 1\n", "rule bucklin\n"))
    assert _refused("solve", bucklin) == "error: 1 votes x 1700! options exceed cap 20000\n"


def test_top_k_cap_names_n_m_and_k_not_the_binomial(tmp_path):
    # C(14400, 7200) has 4,333 digits; the pair override keeps auto off flow
    m = 14400
    path = tmp_path / "wide.sbe"
    path.write_text("\n".join([
        "sbe 1", f"candidates {m}", *(f"candidate {i} c{i}" for i in range(m)), "rule k-approval 7200",
        "budget 1", f"preferred c{m - 1}", "vote 0 multiplicity 1 head c1", "costs 0 default 1",
        "costs 0 pair c0 c1 2", "",
    ]))
    assert _refused("solve", path) == "error: 1 votes x C(14400,7200) options exceed cap 50000\n"


@pytest.mark.parametrize("command", ["solve", "export-network"])
def test_flow_names_the_classes_and_m_before_building_ten_million_arcs(tmp_path, command):
    # Heads of two of 10,000 names, the preferred candidate in none: about
    # one unit-price class per vote, so 1,000 votes would need 1,000 x 10,001
    # arcs. The 20,000-vote file (1 MB) ran out of a 1 GB address space
    # building every class's 10,000-long ranking before the cap was checked.
    m = 10_000
    options = ["--s-star", 2, "--out", tmp_path / "net.dot"] if command == "export-network" else []
    for n, seed, classes in ((1000, 12, 1000), (20_000, 1, 19_998)):
        rng = random.Random(seed)
        path = tmp_path / f"m10000n{n}.sbe"
        path.write_text("\n".join([
            "sbe 1", f"candidates {m}", *(f"candidate {i} c{i}" for i in range(m)), "rule k-approval 1",
            "budget 1", "preferred c0",
            *(f"vote {v} multiplicity 1 head c{a} c{b}" for v, (a, b) in enumerate(rng.sample(range(1, m), 2) for _ in range(n))),
            "",
        ]))
        err = _refused(command, path, *options)
        assert err == f"error: {classes} vote classes x 10000 candidates exceed the cap of 1000000 arcs\n"


def test_pw_to_sb_writes_a_run_of_equal_partial_votes_as_one_vote(tmp_path):
    # a million unconstrained votes: closed and written one by one, they took
    # 16.6 s of CPU, about 1,000 MB and a 59.8 MB file
    path, out = tmp_path / "million.pwe", tmp_path / "million.sbe"
    path.write_text("pwe 1\ncandidates 2\ncandidate 0 a\ncandidate 1 b\nrule k-approval 1\npreferred a\npartials 1000000\n")
    done = _run("reduce", "pw-to-sb", path, "--out", out)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert out.read_text().splitlines()[-2:] == ["vote 0 multiplicity 1000000 order a b", "costs 0 default 0"]


# The translation of the file above: one vote of a million copies, free to swap.
MILLION_COPIES = "\n".join([
    "sbe 1", "candidates 2", "candidate 0 a", "candidate 1 b", "rule k-approval 1", "budget 0", "preferred a",
    "mode co-winner", "vote 0 multiplicity 1000000 order a b", "costs 0 default 0", "",
])


def _timed(*argv):
    """One call through ``_run``, and the process time its child took."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = _run(*argv)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return done, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def test_sb_to_pw_translates_a_million_copies_back_as_one_partial_order(tmp_path):
    # partial orders built vote by vote took 9-11 s of CPU and 365 MB, about
    # the timeout, so the CPU time is held to the 5 s a large file may take
    path, out = tmp_path / "million.sbe", tmp_path / "million.pwe"
    path.write_text(MILLION_COPIES)
    done, cpu = _timed("reduce", "sb-to-pw", path, "--out", out)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert cpu < 5, cpu
    assert out.read_text() == (
        "pwe 1\ncandidates 2\ncandidate 0 a\ncandidate 1 b\nrule k-approval 1\npreferred a\npartials 1000000\n"
    )


def test_solve_of_a_million_copies_splits_its_one_class_by_runs(tmp_path):
    # grouped copy by copy and split into one target per vote, the solve took
    # 2.9-3.5 s of CPU; its CPU time is held to the same 5 s
    path = tmp_path / "million.sbe"
    path.write_text(MILLION_COPIES)
    done, cpu = _timed("solve", path)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert "cost: 0" in done.stdout.splitlines()
    assert cpu < 5, cpu


def test_solve_of_a_million_copies_peaks_near_a_file_of_one_copy(tmp_path):
    # A class that listed each of its copies' indices peaked at 71 MB against
    # 18 MB for one copy. Each child prints the peak of its own address space
    # (VmHWM): its ru_maxrss would count the test process it was forked from.
    peak = (
        "import sys; from swapbribery.cli import main; code = main(sys.argv[1:]); "
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')), "
        "file=sys.stderr); sys.exit(code)"
    )
    peaks = []
    for copies in (1_000_000, 1):
        path = tmp_path / f"copies{copies}.sbe"
        path.write_text(MILLION_COPIES.replace("multiplicity 1000000", f"multiplicity {copies}"))
        done = subprocess.run(
            [sys.executable, "-c", peak, "solve", str(path)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=10, preexec_fn=_one_gigabyte,
        )
        assert (done.returncode, "cost: 0" in done.stdout.splitlines()) == (0, True), done.stderr
        peaks.append(int(done.stderr) / 1024)  # kB to MB
    assert peaks[0] - peaks[1] < 20, peaks


def test_verify_of_a_million_copies_prices_each_changed_copy_at_its_line(tmp_path):
    # the solution changes no vote; its check is held to the same 5 s of CPU
    path, solution = tmp_path / "million.sbe", tmp_path / "million.sbs"
    path.write_text(MILLION_COPIES)
    done = _run("solve", path, "--solution", solution)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    done, cpu = _timed("verify", path, solution)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert "solution valid: yes" in done.stdout.splitlines()
    assert cpu < 5, cpu


def test_a_random_graph_past_the_vertex_bound_is_refused_before_drawing(tmp_path):
    # --n 2000 took 26 s of CPU and 756 MB, most of it building and writing the instance
    out = tmp_path / "sv.sbe"
    assert _refused("generate", "clique-single-vote", "--n", 3000, "--out", out) == (
        "error: --n 3000 has more than 1000 vertices\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("classes", ["3000,3000", "1" + "0" * 5000 + ",2"], ids=["6000-vertices", "5001-digits"])
def test_planted_classes_past_the_vertex_bound_are_refused_before_drawing(tmp_path, classes):
    # drawing the 6,000-vertex graph took 23 s before its size check; int() refuses 5,001 digits
    out = tmp_path / "g.sbe"
    err = _refused("generate", "clique-gadget", "--classes", classes, "--out", out)
    assert err == f"error: --classes {classes} has more than 1000 vertices\n"
    assert not out.exists()


def test_running_out_of_memory_is_an_error(monkeypatch, capsys):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(cli, "_read", exhausted)
    assert cli.console(["kernelize", "any.sbe"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_any_other_exception_keeps_its_traceback_but_exits_2(monkeypatch, capsys):
    def broken(path):
        raise RuntimeError("a fault of the program")

    monkeypatch.setattr(cli, "_read", broken)
    assert cli.console(["kernelize", "any.sbe"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("Traceback") and err.endswith("RuntimeError: a fault of the program\n")


def test_main_lets_a_fault_of_the_program_raise_to_its_caller(monkeypatch):
    # a caller that runs main in process tells a failed assertion from an error line
    def broken(path):
        raise AssertionError("a failed check")

    monkeypatch.setattr(cli, "_read", broken)
    with pytest.raises(AssertionError, match="a failed check"):
        cli.main(["kernelize", "any.sbe"])
