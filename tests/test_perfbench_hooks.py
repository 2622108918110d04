"""The benchmark's tracer patches package functions by name; these must stay.

``perfbench/tracing.py`` wraps functions where their callers look them up
(``cli.solve_ilp``, ``ilp.build_ilp``, ``ilp.lp_feasible``, ...). A refactor
that renames one, or stops calling it through its module, breaks the
benchmark's per-layer counts. The tracer runs in a subprocess so its
patches stay out of the other tests.
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
code = cli.main(["solve", sys.argv[1], "--algorithm", "ilp"])
counts = tracer.op_counts
print(code, counts["ilp.sets_tried"], counts["ilp.variables"], counts["lp.calls"])
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


def test_tracer_installs_and_sees_ilp_layers(tmp_path):
    path = tmp_path / "two.sbe"
    path.write_text(INSTANCE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    # Decision yes (exit 0); one set tried over one variable; one relaxation.
    assert result.stdout.splitlines()[-1].split() == ["0", "1", "1", "1"]
