"""Record the reference outputs that the sweep and spectator checks compare
against.

Usage: python3 bench/make_reference.py

Runs every spec of the reference pools (``workloads.reference_pool``)
through ``nadqec.cli.run`` and writes their CSV text to
``bench/reference.json``. The committed file was made at the seed commit;
rerun this only when a pool changes, and only on a commit whose outputs are
known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import SRC, source_digest


def main() -> int:
    sys.path.insert(0, str(SRC))
    from nadqec import cli

    outputs = {}
    tmp = Path(tempfile.mkdtemp(dir=workloads.REFERENCE_PATH.parent))
    try:
        for name, specs in workloads.reference_pool().items():
            for i, spec in enumerate(specs):
                out = tmp / f"{name}-{i}.csv"
                rc = cli.run(cli.ExperimentSpec(spec["kind"], spec["params"],
                                                str(out), spec["seed"]))
                if rc != 0:
                    print(f"{spec['kind']} failed with exit code {rc}", file=sys.stderr)
                    return 1
                outputs[workloads.spec_key(spec)] = out.read_text()
                print(f"{name} {i + 1}/{len(specs)} {spec['kind']}", flush=True)
    finally:
        shutil.rmtree(tmp)
    workloads.REFERENCE_PATH.write_text(json.dumps(
        {"source_sha256": source_digest(), "outputs": outputs},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
