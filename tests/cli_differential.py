"""Seeded command-line differential between two source trees.

    python tests/cli_differential.py OLD_SRC NEW_SRC WORKDIR

Generates a seeded corpus with OLD_SRC's ``generate``, then runs the same
command lines through ``cli.main`` of each tree, one process per tree, and
compares exit code, stdout, stderr and every file a call writes. Covered:
``solve`` with every algorithm and ``--solution``, ``verify`` of each
solution and of the solution file OLD_SRC's ``solve`` writes for the same
call, so that both trees read the same files (the full form, one target
line per vote, when OLD_SRC predates the short form), ``solve --algorithm
ilp --dump-ilp`` with its listing, also on Bucklin copies of small
k-approval instances, whose listings hold one program per description set,
and on a seven-candidate file and its Bucklin copy, which the ILP refuses,
``kernelize`` with and without ``--simple`` and ``--provenance``,
``export-network`` for every s* from 0 to n + 1, ``reduce`` both ways,
and gadget ``generate`` and ``kernelize``; the instances include files with
one swap price per vote, zero and rational ones among them. Equal prices
held by distinct objects are reached through copies of small instances
that write each vote as several vote lines with their own equal cost lines
(``solve`` with ``auto``, ``brute`` and ``flow``, and ``reduce sb-to-pw``),
and through vote lines of multiplicity 2 or 3 with pair overrides
(``kernelize`` with and without ``--simple``, ``solve`` with ``auto``,
``brute`` and ``ilp``, and ``verify`` of each solution). The reader's own paths are reached through copies of priced
files: with each cost token respelled as an equal value (``solve``,
``verify`` and ``kernelize``), and, through ``solve``, with a bad cost
token on every line of a repeating token or on one later line, with index
fields written as ``007`` or ``-0``, and with one written as ``+1`` or
``٣``. Copies of small priced k-approval, scoring and Bucklin files
with their candidates renumbered, the preferred one taking id 0, the last
id or a drawn one, go through ``solve --algorithm brute``, and the
k-approval ones through ``--algorithm color`` too. The two trees
run under different hash seeds, so ``python tests/cli_differential.py src
src WORKDIR`` checks that no output depends on the process. Prints each
call that differs, the counts, and the differing calls per command and
per part (exit code, stdout, files); exits 1 when any call differs beyond
its stderr.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

RUNNER = r"""
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from swapbribery.cli import main
results = []
for argv, outputs in json.loads(Path(sys.argv[2]).read_text()):
    for name in outputs:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except BaseException as exc:
            code = "raised " + type(exc).__name__
    files = {name: Path(name).read_text() if Path(name).exists() else None for name in outputs}
    results.append([code, out.getvalue(), err.getvalue(), files])
Path(sys.argv[3]).write_text(json.dumps(results))
"""


def run_tree(work: Path, src: str, calls: list, name: str, hash_seed: str) -> list:
    """Run ``calls`` through ``cli.main`` of the tree at ``src``, in one process."""
    calls_path, runner, target = work / f"{name}.calls.json", work / "runner.py", work / f"{name}.json"
    calls_path.write_text(json.dumps(calls))
    runner.write_text(RUNNER)
    subprocess.run([sys.executable, str(runner), src, str(calls_path), str(target)],
                   env=dict(os.environ, PYTHONHASHSEED=hash_seed), check=True)
    return json.loads(target.read_text())


def build_calls(work: Path, old_src: str) -> list:
    corpus, out = work / "corpus", work / "out"
    corpus.mkdir(parents=True, exist_ok=True)
    out.mkdir(exist_ok=True)
    rng = random.Random(2026)
    env = dict(os.environ, PYTHONPATH=old_src)

    def generate(args, path):
        command = [sys.executable, "-m", "swapbribery.cli", "generate", *map(str, args), "--out", str(path)]
        subprocess.run(command, env=env, check=True)

    instances = []
    small = []  # (path, k) of k-approval instances over 2 to 4 candidates
    models = ["unit", "unit", "two:1:2:0.3", "range:1:3", "two:1/2:3/2:0.5"]
    for i in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        k = rng.randint(1, m)
        path = corpus / f"r{i}.sbe"
        generate(["random", "--m", m, "--n", n, "--k", k, "--cost-model", rng.choice(models), "--seed", i], path)
        text = path.read_text()
        roll = rng.random()
        if roll < 0.15 and m <= 5:
            text = text.replace(f"rule k-approval {k}", "rule bucklin")
        elif roll < 0.25:
            vector = sorted((rng.randint(0, 3) for _ in range(m)), reverse=True)
            text = text.replace(f"rule k-approval {k}", "rule scoring " + ",".join(map(str, vector)))
        if rng.random() < 0.3:
            text = text.replace("mode co-winner", "mode unique-winner")
        path.write_text(text)
        instances.append((path, n))
        if f"rule k-approval {k}\n" in text and 2 <= m <= 4:
            small.append((path, k))
    # zero budget and prices in {0, 1}: instances that reduce to Possible Winner
    reducible = []
    for i in range(40):
        m, n = rng.randint(2, 5), rng.randint(1, 4)
        k = rng.randint(1, m)
        path = corpus / f"z{i}.sbe"
        generate(["random", "--m", m, "--n", n, "--k", k, "--cost-model", "two:0:1:0.5",
                  "--budget", "0", "--seed", 1000 + i], path)
        reducible.append(path)

    calls = []
    old_solves = []  # run once by OLD_SRC while the corpus is built

    def call(*argv, outputs=()):
        calls.append([[str(a) for a in argv], [str(o) for o in outputs]])

    def instance_calls(path, n):
        for algorithm in ("auto", "brute", "flow", "color", "ilp"):
            solution = out / f"{path.stem}.{algorithm}.sbs"
            call("solve", path, "--algorithm", algorithm, "--solution", solution, outputs=[solution])
            call("verify", path, solution)
            old_solution = corpus / f"{path.stem}.{algorithm}.sbs"
            old_solves.append([["solve", str(path), "--algorithm", algorithm, "--solution", str(old_solution)], []])
            call("verify", path, old_solution)
        listing = out / f"{path.stem}.lp"
        call("solve", path, "--algorithm", "ilp", "--dump-ilp", listing, outputs=[listing])
        kernel, provenance = out / f"{path.stem}.k.sbe", out / f"{path.stem}.k.json"
        call("kernelize", path, "--out", kernel, "--provenance", provenance, outputs=[kernel, provenance])
        call("kernelize", "--simple", path, "--out", kernel, "--provenance", provenance,
             outputs=[kernel, provenance])
        call("kernelize", path)
        for s_star in range(n + 2):
            call("export-network", path, "--s-star", s_star)
        partial = out / f"{path.stem}.pwe"
        call("reduce", "sb-to-pw", path, "--out", partial, outputs=[partial])

    for path, n in instances:
        instance_calls(path, n)
    for path in reducible:
        partial, back = out / f"{path.stem}.pwe", out / f"{path.stem}.back.sbe"
        call("reduce", "sb-to-pw", path, "--out", partial, outputs=[partial])
        call("reduce", "pw-to-sb", partial, "--out", back, outputs=[back])
        solution = out / f"{path.stem}.sbs"
        call("solve", back, "--solution", solution, outputs=[solution])
        call("verify", back, solution)
    for seed in range(12):
        classes = rng.choice(["2,2", "1,2", "2,3", "1,1,1", "2,1,2"])
        gadget, kernel, provenance = out / f"g{seed}.sbe", out / f"g{seed}.k.sbe", out / f"g{seed}.k.json"
        call("generate", "clique-gadget", "--classes", classes, "--seed", seed, "--out", gadget, outputs=[gadget])
        call("kernelize", gadget, "--out", kernel, "--provenance", provenance, outputs=[kernel, provenance])
        call("kernelize", "--simple", gadget, "--out", kernel, "--provenance", provenance,
             outputs=[kernel, provenance])
        single = out / f"sv{seed}.sbe"
        call("generate", "clique-single-vote", "--n", rng.randint(2, 6), "--k", rng.randint(1, 3),
             "--seed", seed, "--out", single, outputs=[single])
        call("kernelize", single)
        call("solve", single)
    # One swap price per vote, drawn after everything above so that the
    # corpus before it stays the same: uniform 2, 0 and 1/2 prices, and
    # range:1:3 without its pair lines, whose votes keep different defaults.
    for i in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        k = rng.randint(1, m)
        model = ("range:2:2", "range:0:0", "range:1/2:1/2", "range:1:3")[i % 4]
        path = corpus / f"p{i}.sbe"
        generate(["random", "--m", m, "--n", n, "--k", k, "--cost-model", model, "--seed", 2000 + i], path)
        text = "".join(line for line in path.read_text().splitlines(keepends=True) if " pair " not in line)
        if rng.random() < 0.3:
            text = text.replace("mode co-winner", "mode unique-winner")
        path.write_text(text)
        instance_calls(path, n)
    for path, k in small[:12]:
        bucklin, listing = corpus / f"{path.stem}.bucklin.sbe", out / f"{path.stem}.bucklin.lp"
        bucklin.write_text(path.read_text().replace(f"rule k-approval {k}\n", "rule bucklin\n"))
        call("solve", bucklin, "--algorithm", "ilp", "--dump-ilp", listing, outputs=[listing])
    # Seven candidates, past the ILP's cap on m, drawn last so that every call
    # above stays the same: the k-approval file and its Bucklin copy.
    k = rng.randint(1, 7)
    wide = corpus / "m7.sbe"
    generate(["random", "--m", 7, "--n", rng.randint(1, 5), "--k", k, "--seed", 3000], wide)
    bucklin = corpus / "m7.bucklin.sbe"
    bucklin.write_text(wide.read_text().replace(f"rule k-approval {k}\n", "rule bucklin\n"))
    for path in (wide, bucklin):
        solution, listing = out / f"{path.stem}.ilp.sbs", out / f"{path.stem}.lp"
        call("solve", path, "--algorithm", "ilp", "--solution", solution, outputs=[solution])
        call("solve", path, "--algorithm", "ilp", "--dump-ilp", listing, outputs=[listing])
    # Equal prices held by distinct objects, drawn after every call above so
    # that none of them moves. Copies of small instances write each vote as
    # one to three vote lines, each with its own equal cost lines, and the
    # zero-budget {0, 1} ones go through ``reduce sb-to-pw`` as well.
    spreadable = [(path, False) for path, _ in instances if _candidates(path) <= 4][:15]
    for path, reducible_copy in spreadable + [(path, True) for path in reducible[:10]]:
        spread = corpus / f"{path.stem}.spread.sbe"
        spread.write_text(_spread_copies(path.read_text(), rng))
        for algorithm in ("auto", "brute", "flow"):
            solution = out / f"{spread.stem}.{algorithm}.sbs"
            call("solve", spread, "--algorithm", algorithm, "--solution", solution, outputs=[solution])
        if reducible_copy:
            partial = out / f"{spread.stem}.pwe"
            call("reduce", "sb-to-pw", spread, "--out", partial, outputs=[partial])
    # Vote lines of multiplicity 2 or 3 with pair overrides, whose kernel drops
    # candidates: the copies share their line's price, the truncation kernel
    # keeps the lines whole and the full kernel gives each copy's head its
    # line's table. They also go through ``solve`` (``auto``, ``brute`` and
    # ``ilp``), ``verify`` of each solution, which prices every changed copy at
    # its line's price, and plain ``kernelize``; these calls draw nothing.
    for i in range(10):
        path = corpus / f"w{i}.sbe"
        generate(["random", "--m", rng.randint(5, 7), "--n", rng.randint(1, 3), "--k", 1, "--budget", 1,
                  "--cost-model", rng.choice(["two:1:2:0.5", "range:1:3"]), "--seed", 4000 + i], path)
        path.write_text("".join(
            line.replace("multiplicity 1 ", f"multiplicity {rng.randint(2, 3)} ")
            for line in path.read_text().splitlines(keepends=True)
        ))
        kernel, provenance = out / f"{path.stem}.k.sbe", out / f"{path.stem}.k.json"
        call("kernelize", "--simple", path, "--out", kernel, "--provenance", provenance,
             outputs=[kernel, provenance])
        for algorithm in ("auto", "brute", "ilp"):
            solution = out / f"{path.stem}.{algorithm}.sbs"
            call("solve", path, "--algorithm", algorithm, "--solution", solution, outputs=[solution])
            call("verify", path, solution)
        call("kernelize", path)
    # The reader's paths, drawn after every call above so that none of them
    # moves: priced files with each cost token respelled as an equal value,
    # with a bad cost token that repeats from its first line or that first
    # appears on a later line, and with index fields written as 007 or -0,
    # or with one written as +1 or ٣.
    for path in [path for path, _ in instances if " pair " in path.read_text()][:20]:
        respelled = corpus / f"{path.stem}.respelled.sbe"
        respelled.write_text(_respelled(path.read_text(), rng))
        solution = out / f"{respelled.stem}.sbs"
        call("solve", respelled, "--solution", solution, outputs=[solution])
        call("verify", respelled, solution)
        call("kernelize", respelled)
        for tag, text in _misspelled(path.read_text(), rng).items():
            copy = corpus / f"{path.stem}.{tag}.sbe"
            copy.write_text(text)
            call("solve", copy)
    # Small priced k-approval, scoring and Bucklin files with their candidates
    # renumbered, drawn after every call above so that none of them moves: the
    # preferred candidate takes id 0, the last id or a drawn one, and the
    # others are shuffled. The brute-force search counts each candidate in
    # its own tally column, so its answers must not depend on the numbering.
    priced = [path for path, _ in instances if " pair " in path.read_text() and _candidates(path) >= 2]
    for rule in ("k-approval", "scoring", "bucklin"):
        for path in [path for path in priced if f"\nrule {rule}" in path.read_text()][:4]:
            m = _candidates(path)
            for tag, preferred_id in (("first", 0), ("last", m - 1), ("drawn", rng.randrange(m))):
                copy = corpus / f"{path.stem}.renumbered-{tag}.sbe"
                copy.write_text(_renumbered(path.read_text(), preferred_id, rng))
                for algorithm in ("brute", "color") if rule == "k-approval" else ("brute",):
                    solution = out / f"{copy.stem}.{algorithm}.sbs"
                    call("solve", copy, "--algorithm", algorithm, "--solution", solution, outputs=[solution])
    run_tree(work, old_src, old_solves, "old-solutions", "1")
    return calls


def _candidates(path: Path) -> int:
    return next(int(line.split()[1]) for line in path.read_text().splitlines() if line.startswith("candidates "))


def _renumbered(text: str, preferred_id: int, rng: random.Random) -> str:
    """``text`` with its ``candidate i name`` lines renumbered at random, the
    preferred candidate taking id ``preferred_id``; the other lines name
    candidates, so they stay as they are."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("candidate "))
    roster = [line.split(" ", 2)[2] for line in lines[first:] if line.startswith("candidate ")]
    preferred = next(line.split(" ", 1)[1] for line in lines if line.startswith("preferred "))
    others = [i for i in range(len(roster)) if i != preferred_id]
    rng.shuffle(others)
    ids = {name: preferred_id if name == preferred else others.pop() for name in roster}
    by_id = sorted(roster, key=ids.__getitem__)
    lines[first : first + len(roster)] = [f"candidate {i} {name}" for i, name in enumerate(by_id)]
    return "\n".join(lines) + "\n"


def _spread_copies(text: str, rng: random.Random) -> str:
    """``text`` with each vote written as one to three vote lines of multiplicity 1,
    each with its own copy of the vote's cost lines and an explicit default."""
    lines = text.splitlines()
    costs = {}
    for line in lines:
        if line.startswith("costs "):
            _, i, rest = line.split(" ", 2)
            costs.setdefault(i, []).append(rest)
    kept, votes, priced = [line for line in lines if not line.startswith(("vote ", "costs "))], [], []
    for line in lines:
        if line.startswith("vote "):
            _, i, _, multiplicity, order = line.split(" ", 4)
            own = costs.get(i, [])
            if not any(rest.startswith("default ") for rest in own):
                own = ["default 1", *own]
            for _ in range(int(multiplicity) * rng.randint(1, 3)):
                priced += [f"costs {len(votes)} {rest}" for rest in own]
                votes.append(f"vote {len(votes)} multiplicity 1 {order}")
    return "\n".join(kept + votes + priced) + "\n"


def _respelled(text: str, rng: random.Random) -> str:
    """``text`` with each cost token written as a randomly chosen equal value."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("costs "):
            head, token = line.rsplit(" ", 1)
            p, q = Fraction(token).as_integer_ratio()
            spelling = rng.choice([token, f"{2 * p}/{2 * q}", f"0{token}", f"{3 * p}/{3 * q}", f"{p}/{q}"])
            lines[i] = f"{head} {spelling}"
    return "\n".join(lines) + "\n"


def _misspelled(text: str, rng: random.Random) -> dict[str, str]:
    """Copies of ``text`` that the reader takes or refuses through its fast paths:
    a bad cost token at every line of a repeating token, one at a later line
    only, every index field respelled as an equal decimal, and one index
    field misspelled."""
    lines = text.splitlines()
    costs = [i for i, line in enumerate(lines) if line.startswith("costs ")]
    tokens = [lines[i].rsplit(" ", 1)[1] for i in costs]
    repeated = [t for t in tokens if tokens.count(t) > 1] or tokens
    bad, token = rng.choice(["-1", "-1/2", "1/0", "x", "1.5.0"]), rng.choice(repeated)
    every = [f"{line.rsplit(' ', 1)[0]} {bad}" if line.startswith("costs ") and line.endswith(f" {token}") else line
             for line in lines]
    later = list(lines)
    at = rng.choice(costs[1:] or costs)
    later[at] = f"{later[at].rsplit(' ', 1)[0]} {bad}"
    fields = [(i, f) for i, line in enumerate(lines) if line.startswith(("vote ", "costs "))
              for f in ((1, 3) if line.startswith("vote ") else (1,))]
    equal, wrong = list(lines), list(lines)
    for i, f in fields:
        if rng.random() < 0.5:
            parts = equal[i].split(" ")
            parts[f] = "-0" if parts[f] == "0" and rng.random() < 0.5 else "00" + parts[f]
            equal[i] = " ".join(parts)
    i, f = rng.choice(fields)
    parts = wrong[i].split(" ")
    parts[f] = rng.choice(["+" + parts[f], parts[f].translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))])
    wrong[i] = " ".join(parts)
    return {name: "\n".join(copy) + "\n" for name, copy in
            (("bad-every", every), ("bad-later", later), ("index-equal", equal), ("index-wrong", wrong))}


def main():
    old_src, new_src, work = sys.argv[1], sys.argv[2], Path(sys.argv[3])
    work.mkdir(parents=True, exist_ok=True)
    calls = build_calls(work, old_src)
    # Each tree runs under its own hash seed, so that with OLD_SRC = NEW_SRC
    # the run checks that no output depends on set or dict order.
    results = [run_tree(work, src, calls, tag, hash_seed)
               for tag, src, hash_seed in (("old", old_src, "1"), ("new", new_src, "2"))]
    same = stderr_only = differ = 0
    commands, codes, differing = {}, {}, {}
    for (argv, _), old, new in zip(calls, *results):
        commands[argv[0]] = commands.get(argv[0], 0) + 1
        codes[str(old[0])] = codes.get(str(old[0]), 0) + 1
        if old == new:
            same += 1
        elif (old[0], old[1], old[3]) == (new[0], new[1], new[3]):
            stderr_only += 1
            print("stderr differs:", argv, repr(old[2]), repr(new[2]))
        else:
            differ += 1
            print("differs:", argv, old[:3], new[:3])
            parts = [part for part, i in (("exit", 0), ("stdout", 1), ("files", 3)) if old[i] != new[i]]
            category = f"{argv[0]} ({', '.join(parts)})"
            differing[category] = differing.get(category, 0) + 1
    print(f"calls {len(calls)}: identical {same}, stderr only {stderr_only}, differ {differ}")
    print("calls per command:", commands)
    print("old exit codes:", codes)
    print("differing calls per command and part:", differing)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
