"""Run one benchmark workload in one process and print its metrics.

    python3 navbench/run.py --workload flight-known --seed 0 \
        --seconds 30 --trace 0

`--workload all` runs the three workloads one after another in the same
process. Run it from the root of a dualnav source tree. Set-up (imports,
input generation, warm-up) is repeated and timed apart from the
measurement. The measurement repeats the workload's fixed set of episodes
or queries until --seconds are used. With --trace 0 the last line carries
the gated end-to-end metrics; with --trace 1 the set runs once untraced and
once traced, episode by episode or query by query, and the last line
carries the per-layer metrics. The process exits 1 when an output check
fails and 2 when the tree holds no dualnav sources.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "dualnav").is_dir():
        print(f"no dualnav sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one thread: BLAS and OpenMP pools must be pinned before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from navbench import harness
    return harness.main(sys.argv[1:], started=_T0)


if __name__ == "__main__":
    sys.exit(main())
