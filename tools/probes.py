"""Measurement probes of rzs: the work, memory, time and accuracy of its
deep scan, the memory of its row writer, and the bits of its Z kernels.

    python3 tools/probes.py NAME [ARG ...]

puts src and bench under the working directory first on sys.path, so
that a probe measures the tree it is started in, runs the probe NAME with the given
arguments and prints its result as JSON.  tools/ab.py and
tools/bitcheck.py run each probe in a fresh child started in a tree's
root (ab.probe).  One Tier-1 test runs each probe the same way:

    work                tests/test_ab.py::test_work_counters_of_the_deep_scan
    peaks               tests/test_cli.py::TestZerosCommand::
                            test_deep_scan_and_its_csv_stay_within_their_memory
    csv_blocks, warm    tests/test_ab.py::test_row_writer_blocks_and_warm_scan_time
    accuracy            tests/test_ab.py::test_accuracy_figures_of_the_deep_scan
    arrays              tests/test_ab.py::test_bitcheck_tells_which_arrays_a_wrapped_kernel_moves
                            (through tools/bitcheck.py)
"""

from __future__ import annotations

import json
import os
import random
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


def csv_blocks() -> int:
    """The largest rise of sys.getallocatedblocks(), the live pymalloc
    blocks, while zero_table_to_csv writes the table of
    scan_zeros(0, 1e4, 1e-8) to os.devnull, sampled at each record the row
    writer draws through a wrapped zeta._format_rows."""
    import gc

    import rzs.zeta as zeta

    table = zeta.scan_zeros(0.0, 1.0e4, 1.0e-8)
    real, peak = zeta._format_rows, 0

    def sample(record):
        nonlocal peak
        peak = max(peak, sys.getallocatedblocks() - base)
        return record

    def sampling(out, row, records):
        real(out, row, map(sample, records))

    zeta._format_rows = sampling
    with open(os.devnull, "w") as out:
        gc.collect()
        base = sys.getallocatedblocks()
        zeta.zero_table_to_csv(table, file=out)
    return peak


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


# The bands of heights the accuracy probe reports on, [30, 60), [60, 200),
# [200, 1000) and [1000, 1e4]: the Riemann-Siegel range, where Z's bound
# is a measured one; and the random heights it checks in each band.
BAND_EDGES = (30.0, 60.0, 200.0, 1000.0, 1.0e4)
PER_BAND = 60


def accuracy() -> dict:
    """The accuracy figures of scan_zeros(0, 1e4, 1e-8) that changes to
    the Z kernels are judged by, err being _z_bound:

    - per band of BAND_EDGES, the largest |Z - mpmath.siegelz| and
      |Z - siegelz|/err on PER_BAND heights from a fixed random.Random
      seed, siegelz at 20 digits, and the printed bracket ends there: how
      many, how many have |Z| <= err and the smallest |Z|/err;
    - over bench/reference.json's sampled zeros, those above its full
      list, bench/check.py's own figures (check_gamma): the deep zeros'
      error, which the benchmark's zero_err_max, a maximum over all
      zeros, does not show beside the first zeros' larger one;
    - over all printed ends, the brackets whose ends lack strict
      opposite signs of Z, the ends where Z is 0.0 and the ends with
      |Z| <= err;
    - the smallest |Z|/err over the scan's Gram points, and the scan's
      nodes with |Z| <= err, both taken from the scan's own
      _resolve_blocks call.

    Z at the ends and on the random heights is a fresh _z_values batch,
    bit-equal to the scan's own."""
    import mpmath
    import numpy as np

    import check  # bench/check.py
    import rzs._zkernels as k
    from rzs import scan_zeros

    real_gram_points, real_resolve_blocks, grams, resolved = (
        k._gram_points, k._resolve_blocks, [], [])

    def gram_points(ns):
        grams.append(real_gram_points(ns))
        return grams[-1]

    def resolve_blocks(t_max, n_estimate):
        resolved.append(real_resolve_blocks(t_max, n_estimate))
        return resolved[-1]

    k._gram_points, k._resolve_blocks = gram_points, resolve_blocks
    try:
        table = scan_zeros(0.0, 1.0e4, 1.0e-8)
    finally:
        k._gram_points, k._resolve_blocks = real_gram_points, real_resolve_blocks
    [gram], [(nodes, z_nodes)] = grams, resolved

    ends = np.stack([table.bracket_lo, table.bracket_hi])
    z_ends = k._z_values(ends.ravel()).reshape(ends.shape)
    margin = np.abs(z_ends) / k._z_bound(ends)
    band_of = np.searchsorted(BAND_EDGES[:-1], ends, "right") - 1  # -1 below 30

    rng = random.Random(0)
    bands = {}
    for i, (lo, hi) in enumerate(zip(BAND_EDGES, BAND_EDGES[1:])):
        ts = np.array([rng.uniform(lo, hi) for _ in range(PER_BAND)])
        with mpmath.workdps(20):
            exact = np.array([float(mpmath.siegelz(t)) for t in ts])
        dev = np.abs(k._z_values(ts) - exact)
        in_band = margin[band_of == i]
        name = f"[{lo:g}, {hi:g}{']' if hi == BAND_EDGES[-1] else ')'}"
        bands[name] = {"z_err_max": float(dev.max()),
                       "z_err_ratio_max": float((dev / k._z_bound(ts)).max()),
                       "ends": in_band.size,
                       "ends_within_err": int(np.count_nonzero(in_band <= 1.0)),
                       "end_margin_min": float(in_band.min())}

    reference, deep = check.Reference.load(), check.OpAccuracy()
    for n, row in enumerate(zip(table.gamma, table.bracket_lo, table.bracket_hi),
                            start=table.n_first):
        if n > len(reference.full):
            check.check_gamma(n, row[0], reference, deep, row[1:])

    gram_margin = np.abs(k._z_values(gram)) / k._z_bound(gram)
    loose = np.abs(z_nodes) <= k._z_bound(nodes)
    opposite = np.sign(z_ends[0]) * np.sign(z_ends[1]) < 0.0
    return {
        "bands": bands,
        "sampled": {name: getattr(deep, name) for name in (
            "zeros_checked", "zero_err_max", "brackets_checked", "bracket_misses")},
        "brackets_without_opposite_signs": int(np.count_nonzero(~opposite)),
        "ends_at_zero": int(np.count_nonzero(z_ends == 0.0)),
        "ends": ends.size, "ends_within_err": int(np.count_nonzero(margin <= 1.0)),
        "gram_points": gram.size, "gram_margin_min": float(gram_margin.min()),
        "gram_margin_min_t": float(gram[gram_margin.argmin()]),
        "nodes": nodes.size, "nodes_within_err": int(np.count_nonzero(loose)),
        "nodes_within_err_t": nodes[loose].tolist(),
    }


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
    sys.path[:0] = ["src", "bench"]
    name, *args = sys.argv[1:]
    probe = {"work": work, "peaks": peaks, "csv_blocks": csv_blocks, "warm": warm,
             "accuracy": accuracy, "arrays": arrays}[name]
    print(json.dumps(probe(*args)))
