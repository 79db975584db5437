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

The whole table takes 25-30 s on a shared 2-core host.  pytest does
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
         "tests/test_metamorphic.py::test_deleting_an_edge_never_raises_the_crossing_number",
         "tests/test_metamorphic.py::test_subdividing_an_edge_keeps_the_crossing_number",
         "tests/test_metamorphic.py::test_the_cone_lies_between_the_graph_and_its_one_page_drawings"),
    ),
    Mutant(
        "repeated-hits",
        "conecross/solver.py",
        """            if cert.crossings not in self.seen:
                self.seen.add(cert.crossings)
                yield cert
""",
        """            self.seen.add(cert.crossings)
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
        "below = frozenset(banned)",
        "below = frozenset(banned - {pair})",
        ("tests/test_solver.py::test_no_node_proposes_a_pair_its_path_crosses",),
    ),
    Mutant(
        # The node Euler cut acts at the root only.
        "euler-cut-root-only",
        "conecross/solver.py",
        "if _euler(self.n + s, simple_m) > remaining:",
        "if not crossings and _euler(self.n + s, simple_m) > remaining:",
        ("tests/test_solver.py::test_node_euler_cut_acts_below_the_root_of_a_multigraph",),
    ),
    Mutant(
        # The node Euler cut is one too eager below the root.
        "euler-cut-below-root",
        "conecross/solver.py",
        "if _euler(self.n + s, simple_m) > remaining:",
        "if _euler(self.n + s, simple_m) > remaining - (s > 0):",
        ("tests/test_solver.py::test_complete_graph_values",
         "tests/test_solver.py::test_cr_exact_matches_the_brute_force_oracle_on_the_atlas",
         "tests/test_metamorphic.py::test_subdividing_an_edge_keeps_the_crossing_number",
         "tests/test_metamorphic.py::test_two_page_drawings_lie_between_the_graph_and_its_one_page_drawings"),
    ),
    Mutant(
        # The root skips each new orbit's first pair as well as its repeats.
        "root-skip-leaders",
        "conecross/solver.py",
        """                if pair in reached:
                    continue
                reached |= orbit(pair, self.moves, _sorted_image)
""",
        """                reached |= orbit(pair, self.moves, _sorted_image)
                continue
""",
        ("tests/test_solver.py::test_root_orbit_skip_keeps_the_answer_and_shrinks_the_tree",
         "tests/test_solver.py::test_cr_exact_matches_the_brute_force_oracle_on_the_atlas",
         "tests/test_metamorphic.py::test_subdividing_an_edge_keeps_the_crossing_number"),
    ),
    Mutant(
        # The chord kernel keeps the chords that share an end with chord i.
        "shared-end-chords",
        "conecross/books.py",
        "inside = (upto[hi] ^ upto[lo + 1]) & ~(ends[lo] | ends[hi])",
        "inside = upto[hi] ^ upto[lo + 1]",
        ("tests/test_books.py::test_crossing_pairs_match_the_brute_force_oracle",
         "tests/test_pages.py::test_split_report_matches_the_brute_force_oracle",
         "tests/test_metamorphic.py::test_the_cone_lies_between_the_graph_and_its_one_page_drawings",
         "tests/test_metamorphic.py::test_two_page_drawings_lie_between_the_graph_and_its_one_page_drawings",
         "tests/test_metamorphic.py::test_crossing_numbers_add_over_a_disjoint_union"),
    ),
    Mutant(
        # A split graph's lower bound is its largest part's, not the sum.
        "component-max",
        "conecross/certificates.py",
        'return SolveResult(sum(res.lower for _, _, res in parts), cert, stats, "component sum")',
        'return SolveResult(max(res.lower for _, _, res in parts), cert, stats, "component sum")',
        ("tests/test_solver.py::test_crossings_add_over_disjoint_unions",
         "tests/test_metamorphic.py::test_crossing_numbers_add_over_a_disjoint_union"),
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
    Mutant(
        # The embedding pass puts a tree edge's left back edges in
        # insertion order, not last first.
        "left-back-edge-order",
        "conecross/planarity.py",
        "rotation[u] += left[u][::-1]",
        "rotation[u] += left[u]",
        ("tests/test_planarity.py::test_embedding_is_networkx_embedding_on_sorted_edges",
         "tests/test_apex.py::test_insert_apex_on_k5"),
    ),
    Mutant(
        # The same for right back edges, which a DFS root gathers too.
        "right-back-edge-order",
        "conecross/planarity.py",
        "rotation[u] += right[u][::-1]",
        "rotation[u] += right[u]",
        ("tests/test_planarity.py::test_back_edges_returning_to_a_dfs_root_match_networkx",
         "tests/test_planarity.py::test_embedding_is_networkx_embedding_on_sorted_edges"),
    ),
    Mutant(
        # An edge deletion of the count drops a parallel pair's first copy,
        # so host h of G - x no longer maps to instance h + (h >= x) of G.
        "first-copy-deleted",
        "conecross/solver.py",
        "last = {pair: eid for eid, pair in enumerate(ends)}",
        "last = {pair: eid for eid, pair in reversed(list(enumerate(ends)))}",
        ("tests/test_solver.py::test_an_edge_deletion_drops_its_pairs_last_copy",),
    ),
    Mutant(
        # A count sub-search reports one level more than it exhausted.
        "sub-search-level-plus-one",
        "conecross/solver.py",
        "levels[i], _ = _deepen(part, levels[i], stop)",
        "levels[i] = _deepen(part, levels[i], stop)[0] + 1",
        ("tests/test_solver.py::test_seeded_solves_match_the_brute_force_oracle",),
    ),
    Mutant(
        # A count sub-search starts one level above its Euler bound.
        "sub-search-above-euler",
        "conecross/solver.py",
        "levels = [_euler(len(comp), len(set(hosts))) for comp, hosts in parts]",
        "levels = [_euler(len(comp), len(set(hosts))) + 1 for comp, hosts in parts]",
        ("tests/test_solver.py::test_seeded_solves_match_the_brute_force_oracle",),
    ),
    Mutant(
        # Apex insertion gives up a drawing only when its cheapest face
        # would land above ``below``, not at it.
        "below-strict",
        "conecross/apex.py",
        "if below is not None and cert.count + cost >= below:",
        "if below is not None and cert.count + cost > below:",
        ("tests/test_apex.py::test_below_skips_exactly_the_drawings_that_cannot_beat_it[triangle-hexagon]",),
    ),
    Mutant(
        # Apex insertion tries the faces in id order, not cost order.
        "faces-in-id-order",
        "conecross/apex.py",
        "(sum(col), fid) for fid, col in enumerate(zip(*dist)) if min(col) >= 0",
        "((sum(col), fid) for fid, col in enumerate(zip(*dist)) if min(col) >= 0),"
        " key=lambda ranked: ranked[1]",
        ("tests/test_apex.py::test_ranked_faces_pick_what_a_full_scan_picks[triangle-hexagon]",),
    ),
    Mutant(
        # The exact max-cut walk starts with the two-colouring's cut as its
        # incumbent, not one below it, so an optimum equal to it is lost.
        "incumbent-at-floor",
        "conecross/maxcut.py",
        "    best = floor - 1\n",
        "    best = floor\n",
        ("tests/test_maxcut.py::test_known_small_values",
         "tests/test_maxcut.py::test_exact_returns_the_first_maximum_cut",
         "tests/test_maxcut.py::test_exact_matches_a_plain_walk_past_brute_force",
         "tests/test_pages.py::test_split_report_matches_the_brute_force_oracle"),
    ),
    Mutant(
        # The triangle packing leaves a used edge free, so two packed
        # triangles may share it and the bound drops below the optimum.
        "triangle-edge-reuse",
        "conecross/maxcut.py",
        "                    used[j] |= bit | w\n"
        "                    used[w.bit_length() - 1] |= bit | low\n",
        "                    used[j] |= bit\n"
        "                    used[w.bit_length() - 1] |= bit\n",
        ("tests/test_maxcut.py::test_exact_matches_a_plain_walk_past_brute_force",
         "tests/test_maxcut.py::test_heuristic_falls_back_to_the_exact_cut",
         "tests/test_pages.py::test_split_report_matches_the_brute_force_oracle"),
    ),
    Mutant(
        # The walk's last vertex takes side 1 on a tie with the incumbent,
        # so a later maximum cut replaces the first.
        "leaf-tie-to-side-1",
        "conecross/maxcut.py",
        "            if cut + gain1 > best:\n",
        "            if cut + gain1 >= best:\n",
        ("tests/test_maxcut.py::test_exact_matches_a_plain_walk_past_brute_force",
         "tests/test_maxcut.py::test_heuristic_falls_back_to_the_exact_cut"),
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
    # A row needs only pass or fail: plain asserts skip pytest's rewriting
    # of every imported test and plugin module, which ``-B`` would redo
    # each run, and the mutants profile skips hypothesis's shrinking.
    args = ["-q", "-rfEp", "--tb=no", "-p", "no:cacheprovider", "--assert=plain",
            "--hypothesis-profile=mutants", *mutant.tests]
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
