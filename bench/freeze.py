"""Rewrite frozen.json from the answers the current sources give.

    python3 bench/freeze.py

verify-fail answers are frozen for the default seed; audit-families
answers are invariant under relabeling and frozen per family. Rerun this
only when a change to the package is meant to change those answers.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import Runner, import_fresh  # noqa: E402
from workloads import DEFAULT_SEED, FROZEN_PATH, AuditWorkload, VerifyFailWorkload  # noqa: E402


def main() -> int:
    ft = import_fresh(ROOT / "src")
    frozen = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        fail = VerifyFailWorkload()
        fail.frozen = {}
        fail.prepare(ft, DEFAULT_SEED, Path(tmp))
        runner = Runner(ft)
        fail.run(runner, "base")
        frozen[fail.name] = {
            r.meta["input"].name: fail.frozen_answer(r.answer) for r in runner.records
        }

        audit = AuditWorkload(relabelings=0)
        audit.frozen = {}
        audit.prepare(ft, DEFAULT_SEED, Path(tmp))
        frozen[audit.name] = audit.freeze(Runner(ft))
    sections = []
    for section, answers in sorted(frozen.items()):
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                          for key, value in sorted(answers.items()))
        sections.append(f" {json.dumps(section)}: {{\n{rows}\n }}")
    with open(FROZEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")  # one answer per line
    return 0


if __name__ == "__main__":
    sys.exit(main())
