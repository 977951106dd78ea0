"""Bit-for-bit comparison of the Z kernels and the scan: the change against
its parent.

    python3 tools/bitcheck.py

Takes the change and its parent as tools/ab.py does (the change is the
tracked working tree, as `git stash create` commits it, or HEAD; the
parent is HEAD while tracked files have uncommitted changes, else
HEAD~1), copies both with `git archive` to a temporary directory and, in
one child process per tree, evaluates rzs._zkernels on fixed grids:
_z_values (Z), _z_bound (its bound, one _Z_BLOCK slice at a time) and
_theta_vec at 200,001 heights in [0, 40] and 50,001 in [40, 1e4], and
_gram_points for n = -1..10159; then scan_zeros(0, 1e4, 1e-8), whose
gamma, bracket_lo and bracket_hi cover a change to the zero table or to
refinement.  Prints one line per array, "equal" or the count of
differing values and the largest absolute change, and exits 1 if any
differ.  A change to the kernels or the scan that keeps every printed
number runs this against its parent.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import numpy as np

from ab import change, copy, parent

# Saves the kernels' arrays on the grids and the scan's columns to the .npz
# file argv[1], in a child started in a tree's root.
_EVALUATE = """
import sys
sys.path.insert(0, "src")
import numpy as np
import rzs._zkernels as k
from rzs import scan_zeros
ts = np.concatenate([np.linspace(0.0, 40.0, 200001), np.linspace(40.0, 1.0e4, 50001)])
z = k._z_values(ts)
# The default serves a tree before _z_bound(ts): delete once both trees have it.
z_bound = getattr(k, "_z_bound", lambda part: k._z_block(part)[1])
bound = np.concatenate([z_bound(ts[i:i + k._Z_BLOCK])
                        for i in range(0, ts.size, k._Z_BLOCK)])
table = scan_zeros(0.0, 1.0e4, 1.0e-8)
np.savez(sys.argv[1], z=z, bound=bound, theta=k._theta_vec(ts),
         gram=k._gram_points(np.arange(-1, 10160)),
         **{name: np.asarray(getattr(table, name), dtype=float)
            for name in ("gamma", "bracket_lo", "bracket_hi")})
"""


def evaluate(root: str, out: str) -> dict[str, np.ndarray]:
    subprocess.run([sys.executable, "-c", _EVALUATE, out], cwd=root, check=True)
    with np.load(out) as data:
        return dict(data)


def main() -> int:
    rev = parent()[0]
    with tempfile.TemporaryDirectory() as tmp:
        arrays = {}
        for side, tree in (("base", rev), ("head", change())):
            root = os.path.join(tmp, side)
            copy(tree, root)
            arrays[side] = evaluate(root, os.path.join(tmp, side + ".npz"))
    print(f"bitcheck: the change against {rev}")
    differ = 0
    for name, a in arrays["base"].items():
        b = arrays["head"][name]
        if a.shape != b.shape:  # a scan that found another number of zeros
            print(f"{name}: {a.size} values against {b.size}")
            differ += 1
            continue
        count = np.count_nonzero(a.view(np.uint64) != b.view(np.uint64))
        print(f"{name}: {a.size} values, " + (
            f"{count} differ, max |change| {np.abs(b - a).max():.3g}" if count
            else "equal"))
        differ += count
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
