"""Re-record ``tests/fixtures/criterion8_digests.json`` from a fresh
criterion-8 tree built by this checkout.

Run it only when a change is meant to move the tree, and say in the
change's notes which files moved, by how much and why:

    PYTHONPATH=src python tests/record_criterion8_digests.py
"""

import json
import tempfile
from pathlib import Path

import criterion8


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = criterion8.build_taggers(Path(tmp))
        criterion8.build_rest(work)
        recorded = criterion8.record(
            criterion8.tree_files(Path(tmp) / "corpus", work))
    criterion8.DIGESTS.write_text(json.dumps(recorded, indent=1,
                                             sort_keys=True) + "\n")
    print(f"recorded {len(recorded['files'])} files -> {criterion8.DIGESTS}")


if __name__ == "__main__":
    main()
