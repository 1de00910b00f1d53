#!/usr/bin/env python3
"""Checks that every gtest filter in the CI workflow still selects tests.

The sanitizer and fault-matrix jobs of the CI workflow run hand-written
``--gtest_filter`` lists. A renamed or deleted suite would silently drop out
of such a list, and with it out of that job's coverage. For each
``--gtest_filter=`` in the workflow, this script lists the tests of the test
binary (``--gtest_list_tests``) and fails if any positive pattern (the part
before a ``-``) matches none of them. Patterns use gtest's wildcards: ``*``
matches any string and ``?`` any one character.

Usage: check_ci_gtest_filters.py --tests build/doda_tests
                                 [--workflow .github/workflows/ci.yml]

Prints one line per pattern with its match count; exits 1 if a pattern
matches nothing or the workflow holds no filter at all.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

FILTER = re.compile(r"""--gtest_filter=(?:'([^']*)'|"([^"]*)"|(\S+))""")


def workflow_filters(text: str) -> list[str]:
    """Every --gtest_filter value in the workflow text, in order."""
    return [next(group for group in match.groups() if group is not None)
            for match in FILTER.finditer(text)]


def positive_patterns(gtest_filter: str) -> list[str]:
    """The patterns a filter selects by (those before its first '-')."""
    positive = gtest_filter.split("-", 1)[0]
    return [pattern for pattern in positive.split(":") if pattern]


def pattern_regex(pattern: str) -> re.Pattern[str]:
    """gtest's wildcard match as a full-string regex."""
    return re.compile("".join(
        ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
        for ch in pattern) + r"\Z")


def list_tests(listing: str) -> list[str]:
    """Full test names ("Suite.Test") from --gtest_list_tests output."""
    names = []
    suite = ""
    for line in listing.splitlines():
        entry = line.split("#", 1)[0].rstrip()
        if not entry:
            continue
        if entry.startswith(" "):
            names.append(suite + entry.strip())
        else:
            suite = entry
    return names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", required=True,
                        help="gtest binary whose tests the filters select")
    parser.add_argument("--workflow", default=str(
        Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml"))
    args = parser.parse_args()

    filters = workflow_filters(Path(args.workflow).read_text(encoding="utf-8"))
    if not filters:
        print(f"check_ci_gtest_filters: no --gtest_filter in {args.workflow}")
        return 1
    listing = subprocess.run([args.tests, "--gtest_list_tests"],
                             capture_output=True, text=True, check=True)
    tests = list_tests(listing.stdout)
    empty = []
    for gtest_filter in filters:
        for pattern in positive_patterns(gtest_filter):
            regex = pattern_regex(pattern)
            count = sum(1 for name in tests if regex.match(name))
            print(f"{count:5d}  {pattern}")
            if count == 0:
                empty.append(pattern)
    if empty:
        print("check_ci_gtest_filters: patterns that select no test: " +
              ", ".join(empty))
        return 1
    print(f"check_ci_gtest_filters: {len(filters)} filters of "
          f"{args.workflow} each select tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
