"""totsim benchmark: run one workload and print its metrics, or run them all.

    python3 perfbench/run.py --workload illusory_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, untraced and traced

It benchmarks the totsim sources under `src/` of the checkout this file sits
in, and reads that checkout's `configs/` and `BENCHMARK.json`. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. perfbench/README.md describes the workloads and the
metrics.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "totsim" / "__init__.py").is_file():
        print(f"perfbench: no totsim sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from harness import main

    sys.exit(main())
