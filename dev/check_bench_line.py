"""Check the result line of a zcbench run.

    python3 zcbench/run.py --workload sweep --seed 1 --seconds 5 --trace 1 \
        | python3 dev/check_bench_line.py --trace 1

Reads the run's stdout and exits 1 unless its last line parses as a JSON
object that reports `correct: true` and gives a finite value for every
metric BENCHMARK.json lists for that kind of run: the `end_to_end` metrics
for `--trace 0`, the `per_layer` metrics for `--trace 1`. A run can exit 0
and still drop a metric (zcbench reports a metric whose target function is
gone as missing, and leaves it out) or write one as null (a non-finite
value), so its exit code alone does not show this.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def problems(last_line: str, trace: int) -> list[str]:
    """What is wrong with a run's last stdout line; empty when it passes."""
    try:
        result = json.loads(last_line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {last_line[:120]!r}"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, failed {result.get('failed')!r}")
    section = "per_layer" if trace else "end_to_end"
    named = result.get("metrics") or {}
    for metric in json.loads(BENCHMARK.read_text())[section]:
        if metric["name"] not in named:
            found.append(f"{section} metric {metric['name']} is missing")
            continue
        value = named[metric["name"]].get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            found.append(f"{section} metric {metric['name']} is {value!r}, not a finite number")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    found = problems(lines[-1], args.trace) if lines else ["the run printed nothing"]
    for problem in found:
        print(f"check_bench_line: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
