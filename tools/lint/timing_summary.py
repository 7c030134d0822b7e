#!/usr/bin/env python3
"""Render lint timing reports as a GitHub step-summary markdown table.

run_clang_tidy.py writes a --timing-report JSON with this envelope:

    {"tool": ..., "wall_seconds": ...,
     "cache": {"hits": ..., "misses": ..., "hit_ratio": ...}, ...}

CI appends `timing_summary.py <report>...` output to $GITHUB_STEP_SUMMARY so
the wall time and cache hit ratio of the gate are visible on the run page
without downloading artifacts. A missing file is reported but non-fatal:
a tool that failed before writing its report should not mask the others.
"""

import json
import sys
from pathlib import Path


def row(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        return f"| `{path}` | _missing_ | | | |"
    data = json.loads(p.read_text(encoding="utf-8"))
    cache = data.get("cache", {})
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    ratio = cache.get("hit_ratio")
    ratio_text = f"{ratio:.0%}" if isinstance(ratio, (int, float)) else "n/a"
    extra = []
    if data.get("over_budget"):
        extra.append("**over budget**")
    return (f"| {data.get('tool', path)} | {data.get('wall_seconds', 0):.2f}s "
            f"| {hits} | {misses} | {ratio_text} {' '.join(extra)} |")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: timing_summary.py report.json...", file=sys.stderr)
        return 2
    print("| tool | wall | cache hits | misses | hit ratio |")
    print("| --- | --- | --- | --- | --- |")
    for path in argv[1:]:
        print(row(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
