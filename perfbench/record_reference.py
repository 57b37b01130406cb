"""Record reference.json: the key outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload once at full and at reduced size (the default seed for
mfde_impulse) and stores the outputs named in workloads.REFERENCE_KEYS.
Re-record only when a change is meant to move the program's results, and
say so with the change.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads
from run import CHILD_ENV, SRC, STATE


def main() -> int:
    os.environ.update(CHILD_ENV)
    sys.path.insert(0, str(SRC))
    import measurefde.cli as cli

    STATE.mkdir(exist_ok=True)
    ref = {}
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        for small in (False, True):
            for name in workloads.NAMES:
                out = os.path.join(tmp, f"{name}-{int(small)}")
                argv = workloads.cli_args(name, workloads.DEFAULT_SEED, small, out)
                if cli.main(argv) != 0:
                    print(f"{name}: cli failed", file=sys.stderr)
                    return 1
                outputs = workloads.key_outputs(name, out)
                ref[workloads.reference_key(name, small)] = \
                    workloads.reference_entry(name, outputs, workloads.DEFAULT_SEED)
                bad = workloads.check(name, out, workloads.DEFAULT_SEED, small, ref)
                if bad:
                    print(f"{name}: {bad}", file=sys.stderr)
                    return 1
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
