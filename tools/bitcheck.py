"""Bit-for-bit comparison of the Z kernels and the scan: the change against
its parent.

    python3 tools/bitcheck.py

Takes the change and its parent as tools/ab.py does (the change is the
tracked working tree, as `git stash create` commits it, or HEAD; the
parent is HEAD while tracked files have uncommitted changes, else
HEAD~1), copies both with `git archive` to a temporary directory and, in
one child process per tree, runs the arrays probe of tools/probes.py:
rzs._zkernels' Z, its bound and theta on fixed grids and the Gram
points, then the gamma, bracket_lo and bracket_hi of
scan_zeros(0, 1e4, 1e-8), which cover a change to the zero table or to
refinement.  Prints one line per array, "equal" or the count of
differing values, the largest absolute change and the largest change in
ulps of the parent's value, and exits 1 if any differ.  A change to the
kernels or the scan that keeps every printed number runs this against
its parent.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

from ab import change, copy, parent, probe


def main() -> int:
    rev = parent()[0]
    with tempfile.TemporaryDirectory() as tmp:
        arrays = {}
        for side, tree in (("base", rev), ("head", change())):
            root = os.path.join(tmp, side)
            copy(tree, root)
            out = os.path.join(tmp, side + ".npz")
            probe(root, "arrays", out)
            with np.load(out) as data:
                arrays[side] = dict(data)
    print(f"bitcheck: the change against {rev}")
    differ = 0
    for name, a in arrays["base"].items():
        b = arrays["head"][name]
        if a.shape != b.shape:  # a scan that found another number of zeros
            print(f"{name}: {a.size} values against {b.size}")
            differ += 1
            continue
        count = np.count_nonzero(a.view(np.uint64) != b.view(np.uint64))
        moved = np.abs(b - a)
        ulps = moved / np.spacing(np.abs(a))
        print(f"{name}: {a.size} values, " + (
            f"{count} differ, max |change| {moved.max():.3g}, "
            f"max {ulps.max():.3g} ulp" if count else "equal"))
        differ += count
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
