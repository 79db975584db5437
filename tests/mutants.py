"""Mutation gate: known-dangerous mutants of ``src/`` that the tests must kill.

Each row of ``MUTANTS`` is one mutant: its name, a file under ``src/``,
a piece of that file's text which must occur in it exactly once, the
text that replaces it, and the ids of the tests that must fail with the
mutant in place.  For each row the runner copies ``src/`` to a temporary
directory, applies the mutant there and runs the row's tests in one
pytest subprocess, with the copy first on the path.  It fails when a
mutant's text no longer occurs exactly once (a refactor that moves the
code must move the row with it) and when any named test does not fail
(the mutant survives, or the test is gone).  ``src/`` itself is never
written.

Run it from the repository root; it applies every row in turn::

    python tests/mutants.py

The whole table takes about 15-25 s on a 2-core host.  pytest does
not collect this file: its name does not start with ``test_``.  A change
that adds a prune, a cut or a skip adds a row for it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "euler-cut",
        "conecross/solver.py",
        "if _euler(self.n + s, simple_m) > remaining:",
        "if _euler(self.n + s, simple_m) >= remaining:",
        ("tests/test_solver.py::test_cr_exact_matches_the_brute_force_oracle_on_the_atlas",
         "tests/test_solver.py::test_seeded_solves_match_the_brute_force_oracle",
         "tests/test_metamorphic.py::test_relabelling_keeps_the_bracket_and_its_reason",
         "tests/test_metamorphic.py::test_deleting_an_edge_never_raises_the_crossing_number"),
    ),
    Mutant(
        "repeated-hits",
        "conecross/solver.py",
        """                if cert.crossings not in seen:
                    seen.add(cert.crossings)
                    yield cert
""",
        """                seen.add(cert.crossings)
                yield cert
""",
        ("tests/test_solver.py::test_certificate_enumeration_yields_distinct_optima",),
    ),
    Mutant(
        "automorphism-multiplicity",
        "conecross/graphs.py",
        """                if any(adj[found[u]].get(found[v]) != mult for u, v, mult in g.edges):
                    found = None
""",
        "",
        ("tests/test_graphs.py::test_automorphism_search_rejects_candidates_refinement_lets_through[C6+2C3]",
         "tests/test_graphs.py::test_automorphism_search_rejects_candidates_refinement_lets_through[Frucht]"),
    ),
    Mutant(
        # A non-planar trimmed block teaches the table the pairs of the
        # whole aligned block, hosts left out of the test included.
        "untrimmed-learn",
        "conecross/solver.py",
        "table.learn(table.nonplanar, ids | 1 << x)",
        "table.learn(table.nonplanar, 1 << x"
        " | ((aligned := (1 << min(lo + HOST_BLOCK, len(self.ends))) - (1 << lo)) & below)"
        " | (aligned >> x << (x + 1)))",
        ("tests/test_solver.py::test_pair_table_halves_hold_only_what_they_claim",),
    ),
    Mutant(
        # A planar single host h at a count root teaches the table {x, h}
        # as a non-planar pair.
        "wrong-half",
        "conecross/solver.py",
        "table.learn(table.planar, 1 << x | 1 << (h + (h >= x)))",
        "table.learn(table.nonplanar, 1 << x | 1 << (h + (h >= x)))",
        ("tests/test_solver.py::test_pair_table_halves_hold_only_what_they_claim",
         "tests/test_solver.py::test_seeded_solves_match_the_brute_force_oracle"),
    ),
    Mutant(
        # A search node forbids its branch's pair only after the branch, so
        # a pair below the root may be offered again to the nodes under it.
        "fold",
        "conecross/solver.py",
        """        for pair in cands:
            banned.add(pair)
            yield from self.branch(chains, crossings, frozenset(banned), pair)
            if self.out_of_time:
                return
""",
        """        for pair in cands:
            yield from self.branch(chains, crossings, frozenset(banned), pair)
            if self.out_of_time:
                return
            banned.add(pair)
""",
        ("tests/test_solver.py::test_no_node_proposes_a_pair_its_path_crosses",),
    ),
    Mutant(
        # The chord kernel keeps the chords that share an end with chord i.
        "shared-end-chords",
        "conecross/books.py",
        "inside = (upto[hi] ^ upto[lo + 1]) & ~(ends[lo] | ends[hi])",
        "inside = upto[hi] ^ upto[lo + 1]",
        ("tests/test_books.py::test_crossing_pairs_match_the_brute_force_oracle",
         "tests/test_pages.py::test_split_report_matches_the_brute_force_oracle"),
    ),
    Mutant(
        # A cone whose best seed is one above the Euler floor takes that
        # seed as exact, with no solve of the cone.
        "seed-above-floor",
        "conecross/apex.py",
        "    res = solve_component(cg, max_k, deadline, best)\n",
        "    if best.count == floor + 1:\n"
        "        return SolveResult(best.count, best, SolveStats(nodes, calls), \"search\")\n"
        "    res = solve_component(cg, max_k, deadline, best)\n",
        ("tests/test_apex.py::test_cone_closes_below_a_best_seed_one_above_the_floor",),
    ),
]

# Imports the copy before pytest starts, and refuses to run against any
# other (an installed package must not shadow the mutant).
_PROBE = """\
import sys
import conecross, pytest
if not conecross.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {conecross.__file__}, not the mutated copy")
sys.exit(pytest.main(sys.argv[2:]))
"""


def run(mutant: Mutant, scratch: Path) -> list[str]:
    """The faults of one mutant: empty when every named test fails."""
    src = scratch / mutant.name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = src / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return [f"its text occurs {text.count(mutant.old)} times in src/{mutant.path}, not once"]
    target.write_text(text.replace(mutant.old, mutant.new))
    args = ["-q", "-rfEp", "--tb=no", "-p", "no:cacheprovider", *mutant.tests]
    done = subprocess.run(
        [sys.executable, "-B", "-c", _PROBE, str(src), *args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    failed = set()
    for line in done.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    faults = [f"{test} did not fail" for test in mutant.tests if test not in failed]
    if faults and done.returncode not in (0, 1):
        faults.append(f"pytest exited {done.returncode}: {(done.stderr or done.stdout).strip()[-500:]}")
    return faults


def main() -> int:
    survivors = 0
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="conecross-mutants-") as scratch:
        for mutant in MUTANTS:
            began = time.monotonic()
            faults = run(mutant, Path(scratch))
            verdict = "not killed" if faults else "killed"
            print(f"{mutant.name}: {verdict} ({time.monotonic() - began:.1f} s)")
            for fault in faults:
                print(f"  {fault}")
            survivors += bool(faults)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
