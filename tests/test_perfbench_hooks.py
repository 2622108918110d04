"""The benchmark's tracer patches package functions by name; these must stay.

``perfbench/tracing.py`` wraps functions where their callers look them up
(``cli.solve_ilp``, ``ilp.build_ilp``, ``ilp.lp_feasible``,
``_search.best_assignment``, ...). A refactor that renames one, or stops
calling it through its module, breaks the benchmark's per-layer counts.
The tracer runs in a subprocess so its patches stay out of the other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from tracing import Tracer
from swapbribery import cli

tracer = Tracer()
tracer.install()
tracer.enabled = True
tracer.begin_op()
code = cli.main(["solve", sys.argv[1], "--algorithm", sys.argv[2]])
counts = tracer.op_counts
print(code, *(counts[name] for name in sys.argv[3:]))
"""

# Two candidates, 1-approval: one description set with one variable per group.
INSTANCE = """\
sbe 1
candidates 2
candidate 0 a
candidate 1 p
rule k-approval 1
budget 1
preferred p
mode unique-winner
vote 0 multiplicity 1 order a p
costs 0 default 1
"""

BUCKLIN = """\
sbe 1
candidates 3
candidate 0 a
candidate 1 b
candidate 2 p
rule bucklin
budget 2
preferred p
mode co-winner
vote 0 multiplicity 1 order a b p
vote 1 multiplicity 1 order b p a
costs 0 default 1
costs 1 default 1
"""


def _traced(path, algorithm, *counts):
    """Exit code and the named counts of one traced ``solve``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path), algorithm, *counts],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return [int(word) for word in result.stdout.splitlines()[-1].split()]


def test_tracer_installs_and_sees_ilp_layers(tmp_path):
    path = tmp_path / "two.sbe"
    path.write_text(INSTANCE)
    # Decision yes (exit 0); one set tried over one variable; one relaxation.
    assert _traced(path, "ilp", "ilp.sets_tried", "ilp.variables", "lp.calls") == [0, 1, 1, 1]


def test_tracer_sees_the_bucklin_search(tmp_path):
    # Bucklin, three candidates, two votes: one search over 2 * 3! target rankings.
    path = tmp_path / "bucklin.sbe"
    path.write_text(BUCKLIN)
    assert _traced(path, "brute", "search.calls", "oracle.options") == [0, 1, 2 * 6]
