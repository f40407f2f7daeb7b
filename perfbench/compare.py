"""Compare two result files written by run.py, metric by metric.

    python3 perfbench/compare.py perfbench/results/A.json perfbench/results/B.json

Prints each metric of either file with its unit, both values and the
change from A to B.  For the metrics BENCHMARK.json declares, the change
is marked "better" or "worse" by the declared direction, and an
end-to-end metric that worsened by more than its bound is flagged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DECLARED = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    declared = {}
    if DECLARED.is_file():
        spec = json.loads(DECLARED.read_text())
        declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"A: {argv[0]} ({a.get('workload')}, seed {a.get('seed')})")
    print(f"B: {argv[1]} ({b.get('workload')}, seed {b.get('seed')})")
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        unit = (a["metrics"].get(name) or b["metrics"][name])["unit"]
        line = f"{name:48} {unit:>6} {va!s:>14.14} {vb!s:>14.14}"
        if va and vb is not None:
            change = vb / va - 1
            line += f" {change:+8.1%}"
            spec = declared.get(name)
            if spec and change:
                worse = change < 0 if spec["better"] == "higher" else change > 0
                line += " worse" if worse else " better"
                if worse and "bound" in spec and abs(change) > spec["bound"]:
                    line += f" (beyond bound {spec['bound']})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
