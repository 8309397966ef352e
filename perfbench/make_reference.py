"""Write `reference.npz`: each workload's reduced-case outputs at this commit.

Run from the repository root:

    python3 perfbench/make_reference.py

Every benchmark run recomputes the reduced case (run.REFERENCE_SEED, the
small sizes in workloads.py) and compares it with this file. Regenerate it
only when a change is meant to alter the outputs, and say so in the change.
"""

import os
import sys
import tempfile

import run


def main():
    run._pin_threads()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy as np

    import workloads

    arrays = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        for name, wl in workloads.WORKLOADS.items():
            state = wl.setup(run.REFERENCE_SEED, small=True)
            res = wl.op(state, 0, workdir)
            wl.check(state, res, workdir)
            arrays.update({f"{name}/{key}": np.asarray(value)
                           for key, value in res.arrays.items()})
    path = os.path.join(run.HERE, "reference.npz")
    np.savez_compressed(path, **arrays)
    print(f"wrote {path} ({len(arrays)} arrays)")


if __name__ == "__main__":
    main()
