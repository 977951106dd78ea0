"""Generate bench/reference.json, the mpmath reference the benchmark checks against.

    python3 bench/make_reference.py [--workers 2]

The file holds
  - "full":    every zeta zero gamma_1 .. gamma_K with gamma_K <= FULL_T_MAX,
               plus gamma_{K+1}, so zero counts N(T) for T <= FULL_T_MAX are
               exact table look-ups and every listed zero has both neighbours;
  - "sampled": gamma_{n-1}, gamma_n, gamma_{n+1} for a fixed sample of centres
               n in (K + 1, 10142], the zeros below t = 1e4;
  - "counts":  mpmath.nzeros at the fixed heights the workloads scan to.

mpmath.zetazero costs 0.5-2 s a zero, so the table is computed once and
committed; a benchmark run never calls zetazero or nzeros.  The script
cross-checks the full table against mpmath.nzeros before writing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import multiprocessing
import time

import mpmath

from check import REFERENCE_PATH

DPS = 20
FULL_T_MAX = 3000.0
N_BELOW_1E4 = 10142
SAMPLE_CENTRES = 64
# Heights the workloads scan to whose counts do not come from "full".
COUNT_HEIGHTS = (5520.0, 10000.0)
# Heights where the scan audit is known to drop a close pair, plus spread.
CHECK_HEIGHTS = (100.0, 250.0, 500.0, 777.7, 1000.0, 1339.03, 1420.65,
                 1700.0, 2000.0, 2345.6, 2600.0, 2999.0, FULL_T_MAX)



def _gamma(n: int) -> float:
    mpmath.mp.dps = DPS
    return float(mpmath.zetazero(n).imag)


def _nzeros(t: float) -> int:
    mpmath.mp.dps = DPS
    return int(mpmath.nzeros(t))


def sample_centres(n_full: int) -> list[int]:
    """Fixed, evenly log-spaced centres above the full table, ending at 10142."""
    lo, hi = n_full + 2, N_BELOW_1E4
    ratio = (hi / lo) ** (1.0 / (SAMPLE_CENTRES - 1))
    return sorted({min(hi, round(lo * ratio**i)) for i in range(SAMPLE_CENTRES)})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    started = time.time()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.workers) as pool:
        n_full = _nzeros(FULL_T_MAX)
        full = pool.map(_gamma, range(1, n_full + 2), chunksize=8)
        centres = sample_centres(n_full)
        wanted = sorted({m for n in centres for m in (n - 1, n, n + 1)})
        sampled = dict(zip(wanted, pool.map(_gamma, wanted, chunksize=1)))
        counts = dict(zip(COUNT_HEIGHTS, pool.map(_nzeros, COUNT_HEIGHTS)))
        checks = dict(zip(CHECK_HEIGHTS, pool.map(_nzeros, CHECK_HEIGHTS)))
    if full[n_full - 1] > FULL_T_MAX or full[n_full] <= FULL_T_MAX:
        raise SystemExit("full table does not end at FULL_T_MAX")
    for t, n in checks.items():
        if bisect.bisect_right(full, t) != n:
            raise SystemExit(f"full table disagrees with nzeros({t}) = {n}")
    if any(b <= a for a, b in zip(full, full[1:])):
        raise SystemExit("full table is not strictly increasing")
    data = {
        "generator": "bench/make_reference.py",
        "mpmath": mpmath.__version__,
        "dps": DPS,
        "full_t_max": FULL_T_MAX,
        "full": full,
        "sampled": {str(n): g for n, g in sampled.items()},
        "counts": {repr(t): n for t, n in counts.items()},
        "count_checks": {repr(t): n for t, n in checks.items()},
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=0)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(full)} full, {len(sampled)} sampled zeros "
          f"in {time.time() - started:.0f} s")


if __name__ == "__main__":
    main()
