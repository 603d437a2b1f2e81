"""Regenerate the stored reference artifacts of the benchmark.

Runs every shipped scenario at each reference config seed and writes
`reference/seed<k>.json` (artifact name -> text).  It refuses to write a
seed whose verdicts differ from the expected-verdict table.  Run it from the
repository root, only when a change is meant to alter artifacts:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import EXPECTED_CHECKS, REFERENCE_SEEDS, check_verdict, reference_path  # noqa: E402


def main() -> int:
    from besselweights.experiments import SCENARIOS, load_default_config

    status = 0
    for cfg_seed in REFERENCE_SEEDS:
        texts: dict[str, str] = {}
        bad: list[str] = []
        with tempfile.TemporaryDirectory() as out_dir:
            for name in EXPECTED_CHECKS:
                verdict = SCENARIOS[name][0](load_default_config(name, out_dir, cfg_seed))
                ops, artifacts = check_verdict(verdict, {})
                bad += [op for op, ok in ops if not ok and ": artifact " not in op]
                texts.update(artifacts)
        if bad:
            print(f"seed {cfg_seed}: unexpected verdicts, not written: {bad}", file=sys.stderr)
            status = 1
            continue
        with open(reference_path(cfg_seed), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(dict(sorted(texts.items())), fh, indent=0)
            fh.write("\n")
        print(f"seed {cfg_seed}: {len(texts)} artifacts", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
