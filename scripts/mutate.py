"""Run the mutation list of ``scripts/mutants.py``, one mutant at a time.

    python scripts/mutate.py                                 # every mutant
    python scripts/mutate.py --only "floyd: no chain pass"   # one of them

For each mutant, ``src/`` is copied to a temporary directory, the mutant's
source text is replaced there, and ``python -m pytest -x -q`` runs its
selectors from the repository root with the copy as the package's path.
One line a mutant gives its name, what happened (killed or survived), what
its record expects, and the seconds it took; the last line gives the total.
The exit code is 1 when a ``killed`` mutant survives, an ``equivalent`` one
is killed, or a source text does not occur exactly once; else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from mutants import MUTANTS  # noqa: E402


def run(mutant) -> bool:
    """Whether the mutant's selectors fail with it applied to a copy of src/."""
    with tempfile.TemporaryDirectory() as work:
        copy = pathlib.Path(work) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / pathlib.Path(mutant.file).relative_to("src")
        text = path.read_text()
        if text.count(mutant.source) != 1:
            raise SystemExit(f"{mutant.name}: its source text occurs {text.count(mutant.source)} times in {mutant.file}")
        path.write_text(text.replace(mutant.source, mutant.replacement))
        # the ini's pythonpath would put the checkout's src/ first
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "-o", f"pythonpath={copy}", *mutant.tests],
                              cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1"),
                              capture_output=True, text=True)
    return proc.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="the name of the one mutant to run")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.name)]
    if not chosen:
        parser.error(f"no mutant is named {args.only!r}")
    bad, start = 0, time.perf_counter()
    for mutant in chosen:
        began = time.perf_counter()
        killed = run(mutant)
        expected = mutant.status == "killed"
        bad += killed != expected
        print(f"{mutant.name}: {'killed' if killed else 'survived'} (expected {mutant.status.split(':')[0]})"
              f"{'' if killed == expected else ' UNEXPECTED'} {time.perf_counter() - began:.1f} s", flush=True)
    print(f"{len(chosen)} mutants, {bad} unexpected, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
