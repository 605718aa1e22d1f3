"""Rewrite ``references.json`` from the current code.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

With no arguments every case is regenerated.  Changing a reference
changes what tier-1 accepts as correct behaviour: record why in
CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from golden_cases import CASES, REFERENCES, run_case, summary


def main(argv: list[str]) -> int:
    names = argv or list(CASES)
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        references[name] = summary(run_case(name))
        print(name, json.dumps(references[name]), flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
