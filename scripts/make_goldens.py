#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under data/golden/.

Every bundled partition file gets a validate and an analyze golden; a few
extra cases pin the text renderer, the residue-class checker, the metric,
and the DOT output.  Every file written here is byte-for-byte deterministic:
JSON payloads are dumped with sorted keys, witness words come from a
breadth-first enumeration, and block numbering follows the canonical
partition order.  Run this after an intentional output-format change, then
review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hsforge import cli  # noqa: E402

MIXED = str(ROOT / "data" / "ex_two_four_four.partition")
NORMAL = str(ROOT / "data" / "ex_two_normal_four.partition")
THREES = str(ROOT / "data" / "ex_three_threes.partition")


def cases() -> list[tuple[str, int, list[str]]]:
    out = []
    for path in sorted((ROOT / "data").glob("*.partition")):
        stem = path.stem.removeprefix("ex_")
        out.append((f"validate_{stem}.json", 0, ["validate", str(path), "--json"]))
        out.append((f"analyze_{stem}.json", 0, ["analyze", str(path), "--json"]))
    out += [
        ("analyze_two_four_four.txt", 0, ["analyze", MIXED]),
        ("zcheck_cover.json", 0, ["zcheck", "2:0,4:1,4:3", "--json"]),
        ("zcheck_bad.json", 1, ["zcheck", "2:0,3:1", "--json"]),
        ("zcheck_repeat.json", 1, ["zcheck", "2:0,4:1,4:1,4:3", "--json"]),
        ("zcheck_moduli.json", 0, ["zcheck", "3:0,3:1,6:2,6:5", "--json"]),
        ("metric_mixed_normal.json", 0, ["metric", MIXED, NORMAL, "--json"]),
        ("graph_sub_mixed.dot", 0, ["graph", MIXED, "--target", "sub"]),
        ("graph_sub_threes.dot", 0, ["graph", THREES, "--target", "sub"]),
        ("graph_hs_mixed.dot", 0,
         ["graph", MIXED, "--target", "hs", "--word", "ab"]),
    ]
    return out


def main() -> int:
    golden = ROOT / "data" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for stale in golden.iterdir():
        stale.unlink()
    for name, expected_code, argv in cases():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit code {code}, expected {expected_code}")
        (golden / name).write_text(buffer.getvalue())
        print(f"wrote {golden / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
