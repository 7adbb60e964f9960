"""The checked-in mutation list: small breaks of the code, each with the
tests that should catch it.

Each record names a mutant, the file under the repository root it edits,
the exact source text it replaces (which must occur once in that file), the
replacement, the pytest selectors (files or node ids) expected to catch it,
and its status: ``killed`` when a selected test must fail, or
``equivalent: <reason>`` when the mutant cannot change any result, so every
selected test must still pass.  ``scripts/mutate.py`` runs them;
``tests/test_mutants.py`` checks, without running any, that each source
text still occurs exactly once.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    source: str
    replacement: str
    tests: tuple[str, ...]
    status: str


STREAMS = "tests/test_column_streams.py"
OSE = f"{STREAMS}::TestOseTrialsMatchTheLoop"

MUTANTS = [
    Mutant("floyd: no chain pass", "src/sketchbounds/rng.py",
           "        flat[dst[lo:hi]] |= flat[src[lo:hi]]\n",
           "        pass\n",
           (f"{STREAMS}::TestFloydPicks",), "killed"),
    Mutant("floyd: no step bits in the keys", "src/sketchbounds/rng.py",
           "    keys <<= np.uint64(bits)\n    keys |= np.arange(s, dtype=np.uint64)\n",
           "",
           (f"{STREAMS}::TestFloydPicks",), "killed"),
    Mutant("floyd: a step chained to itself", "src/sketchbounds/rng.py",
           "(k >= 0) & (k < np.arange(s)[:, None])",
           "(k >= 0) & (k <= np.arange(s)[:, None])",
           (f"{STREAMS}::TestFloydPicks",),
           "equivalent: a step whose value is its own j reads only its own flag, and its pick is j "
           "either way"),
    Mutant("sweep: the subset reject flag ignored", "src/sketchbounds/witnesses.py",
           "            for lane in np.flatnonzero(reject.any(axis=1)).tolist():\n",
           "            for lane in []:\n",
           (f"{OSE}::test_trial_subsets_that_could_reject_take_choice",), "killed"),
    Mutant("sweep: the guard subset comparison skipped", "src/sketchbounds/witnesses.py",
           "agree = all(np.array_equal(np.sort(picks[i]), np.sort(choice(end[1]))) for i, end in enumerate(ends))",
           "agree = True",
           (f"{OSE}::test_a_wrong_emulated_subset_sends_the_chunk_to_its_real_streams",), "killed"),
    Mutant("sweep: the guard state comparison skipped where choice draws", "src/sketchbounds/witnesses.py",
           "agree = states[:2] == [end[1] for end in ends]",
           "agree = True",
           (f"{OSE}::test_a_wrong_subset_state_sends_every_trial_to_its_real_streams_where_choice_draws",),
           "killed"),
]
