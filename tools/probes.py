"""Measurement probes of rzs: the work, memory and time of its deep scan,
and the bits of its Z kernels.

    python3 tools/probes.py NAME [ARG ...]

puts src under the working directory first on sys.path, so that a probe
measures the tree it is started in, runs the probe NAME with the given
arguments and prints its result as JSON.  tools/ab.py and
tools/bitcheck.py run each probe in a fresh child started in a tree's
root (ab.probe), and the Tier-1 tests of the deep scan's work and memory
run work and peaks the same way in the repository's root.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc


def work() -> dict[str, int]:
    """The work of scan_zeros(0, 1e4, 1e-8), counted by wrapping the
    kernels: Z evaluations and batched calls, main-sum terms (N summed
    over heights) and loop iterations (the largest N of each call),
    Chebyshev terms (series length summed over heights) and Clenshaw
    calls, and theta evaluations."""
    import numpy as np

    import rzs._zkernels as k
    from rzs import scan_zeros

    work = dict.fromkeys(["evaluations", "calls", "main_sum_terms",
                          "main_sum_iterations", "chebyshev_terms",
                          "clenshaw_calls", "theta_evaluations"], 0)

    def count(name, counts):
        real = getattr(k, name)

        def counting(*args):
            for key, value in counts(*args).items():
                work[key] += int(value)
            return real(*args)

        setattr(k, name, counting)

    count("_z_values", lambda ts: {"evaluations": np.size(ts), "calls": 1})
    count("_main_sum", lambda ts, th, big_n: {
        "main_sum_terms": big_n.sum(), "main_sum_iterations": big_n.max(initial=0)})
    count("_chebyshev", lambda coef, y: {
        "chebyshev_terms": len(coef) * np.size(y), "clenshaw_calls": 1})
    count("_theta_vec", lambda ts: {"theta_evaluations": np.size(ts)})
    table = scan_zeros(0.0, 1.0e4, 1.0e-8)
    return {"zeros": len(table.gamma), **work}


def peaks() -> list[int]:
    """The tracemalloc peaks, in bytes, of one warm scan_zeros(0, 1e4, 1e-8)
    and then one warm zeros --t-max 1e4 command: what Python and numpy
    allocate.  Fresh processes of one tree read them up to about 1 KB
    apart, so a smaller difference is no change."""
    import rzs.cli
    from rzs import scan_zeros

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["zeros", "--t-max", "1e4", "--out-path", os.path.join(tmp, "zeros.csv")]
        status = rzs.cli.main(argv)  # warm: imports and lazy set-up
        tracemalloc.start()
        scan_zeros(0.0, 1.0e4, 1.0e-8)
        scan = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        status = status or rzs.cli.main(argv)
        zeros = tracemalloc.get_traced_memory()[1]
    if status:
        sys.exit(f"probes: zeros --t-max 1e4 exited with status {status}")
    return [scan, zeros]


def warm() -> float:
    """The warm time of scan_zeros(0, 1e4, 1e-8), in seconds: after one
    untimed warm-up scan, the median of 5 timed scans."""
    from rzs import scan_zeros

    scan_zeros(0.0, 1.0e4, 1.0e-8)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        scan_zeros(0.0, 1.0e4, 1.0e-8)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def arrays(out: str) -> list[str]:
    """Saves to the .npz file out the kernels' arrays on fixed grids and the
    scan's columns, and returns their names: _z_values (z), _z_bound (bound)
    and _theta_vec (theta) at 200,001 heights in [0, 40] and 50,001 in
    [40, 1e4], _gram_points for n = -1..10159 (gram), and the gamma,
    bracket_lo and bracket_hi of scan_zeros(0, 1e4, 1e-8)."""
    import numpy as np

    import rzs._zkernels as k
    from rzs import scan_zeros

    ts = np.concatenate([np.linspace(0.0, 40.0, 200001), np.linspace(40.0, 1.0e4, 50001)])
    table = scan_zeros(0.0, 1.0e4, 1.0e-8)
    columns = {"z": k._z_values(ts), "bound": k._z_bound(ts), "theta": k._theta_vec(ts),
               "gram": k._gram_points(np.arange(-1, 10160)),
               **{name: np.asarray(getattr(table, name), dtype=float)
                  for name in ("gamma", "bracket_lo", "bracket_hi")}}
    np.savez(out, **columns)
    return list(columns)


if __name__ == "__main__":
    sys.path.insert(0, "src")
    name, *args = sys.argv[1:]
    probe = {"work": work, "peaks": peaks, "warm": warm, "arrays": arrays}[name]
    print(json.dumps(probe(*args)))
