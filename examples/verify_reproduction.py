#!/usr/bin/env python3
"""One-shot reproduction verifier.

Runs every claim of ``repro.claims`` (one per row of DESIGN.md §4:
each table, figure, the §5.1 discovery, the §6 Lemma and the extension
experiments) and prints PASS/FAIL with the claim's regenerated table.

Run:  python examples/verify_reproduction.py
Exit code 0 iff every claim holds.
"""

import sys

from repro.claims import CLAIMS


def main() -> int:
    failures = 0
    for claim in CLAIMS:
        try:
            rows = claim.check()
        except Exception as error:  # a crash is a failure with a reason
            failures += 1
            print(f"[FAIL] {claim.id}: {claim.title}\n"
                  f"       {type(error).__name__}: {error}\n")
            continue
        print(f"[PASS] {claim.id}: {claim.title}")
        for row in rows:
            print(f"       {row}")
        print()
    print(f"{len(CLAIMS) - failures} of {len(CLAIMS)} claims hold"
          + (f"; {failures} FAILED" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
