"""Record the outputs of every catalogue input into ``reference.json``.

Run from the root of a checkout, at the commit whose outputs a later
run should be compared with:

    python3 perfbench/make_reference.py [workload ...]

Without arguments every workload is recorded.  Existing entries of the
workloads not named are kept.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)


def main(names: list[str]) -> int:
    _, workloads = run.import_program()
    reference = workloads.load_reference()
    workdir = run.ROOT / ".perfbench_tmp" / f"reference-{os.getpid()}"
    try:
        for name in names or workloads.NAMES:
            wl = workloads.make(name)
            wl.setup(workdir)
            reference[name] = {
                str(i): workloads.record(wl.call(i)) for i in range(wl.catalogue)
            }
            print(f"{name}: {wl.catalogue} inputs recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
