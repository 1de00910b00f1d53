#!/usr/bin/env python3
"""Checks every relative markdown link in the repo's documentation.

For each ``[text](target)`` in the checked files:
  * http(s)/mailto targets are skipped (no network in CI);
  * ``path`` must exist relative to the linking file;
  * ``path#anchor`` additionally requires a heading in the target file
    whose GitHub slug equals the anchor (``#anchor`` alone checks the
    linking file itself).

Usage: check_docs_links.py [files...]   (default: all tracked *.md)
"""

import re
import subprocess
import sys
from pathlib import Path

LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading):
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def anchors_of(path):
    text = FENCE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(match) for match in HEADING.findall(text)}


def tracked_markdown():
    out = subprocess.run(["git", "ls-files", "*.md"], capture_output=True,
                         text=True, check=True)
    return [Path(line) for line in out.stdout.splitlines() if line]


def main():
    files = ([Path(arg) for arg in sys.argv[1:]] if len(sys.argv) > 1
             else tracked_markdown())
    errors = []
    checked = 0
    for source in files:
        # A tracked file can be missing from the worktree (deleted but not
        # yet committed): report it like a broken link.
        if not source.is_file():
            errors.append(f"{source}: no such file")
            continue
        text = FENCE.sub("", source.read_text(encoding="utf-8"))
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            path_part, _, anchor = target.partition("#")
            dest = (source if not path_part
                    else (source.parent / path_part).resolve())
            if not dest.exists():
                errors.append(f"{source}: broken link: {target}")
                continue
            if anchor and dest.suffix == ".md":
                if github_slug(anchor) not in anchors_of(dest):
                    errors.append(
                        f"{source}: missing anchor #{anchor} in {dest}")
    for error in errors:
        print(f"check_docs_links: {error}", file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"check_docs_links: OK ({checked} links in {len(files)} files)")


if __name__ == "__main__":
    main()
