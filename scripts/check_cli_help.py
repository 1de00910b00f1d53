#!/usr/bin/env python3
"""Conformance test of the unified examples/ CLI convention (examples/cli.hpp).

For every binary passed on the command line:
  * ``--help`` must exit 0 and print ``usage:`` plus (when the program has
    flags) a ``flags:`` table of ``--name <placeholders>  description``
    rows;
  * every documented flag must PARSE: the probe ``--flag VALUE... --help``
    (probe values synthesized from the placeholder vocabulary — <path>,
    <n>, <float>, <str>, <range>, <addr>) must still exit 0, so a
    documented-but-unimplemented flag fails here as "unknown flag" and an
    implemented-but-undocumented vocabulary drifts loudly;
  * an unknown flag must exit 2 and name itself on stderr;
  * a bad input listed in BAD_INPUT_PROBES (a missing or malformed file)
    must exit 1 with exactly one error line on stderr, not abort.

Usage: check_cli_help.py <binary> [<binary>...]
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

FLAG_ROW = re.compile(r"^  (--[\w-]+)((?:\s+<[\w.]+>)*)\s\s+\S")
PLACEHOLDER = re.compile(r"^<([\w.]+)>$")

# Repeated numeric placeholders in one flag take increasing values, so a
# range-shaped flag (e.g. --replay-range <n> <n>) probes as a valid window.
PROBE_VALUES = {
    "path": None,  # filled with a scratch path per run
    "n": ["4", "8", "16", "32"],
    "float": ["0.25", "0.5", "0.75"],
    "str": ["gathering"],
    "addr": ["127.0.0.1"],
}

# Bad inputs per binary: (argv, file contents). "{path}" in argv stands for
# a scratch file holding the contents, or for a missing file when they are
# None.
BAD_INPUT_PROBES = {
    "trace_runner": [
        (["--trace", "{path}"], None),
        (["--trace", "{path}"], "# nodes -1\n0 1\n"),
    ],
}


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def probe_args(arg_spec, scratch):
    """Synthesizes one argv value per placeholder token of a flag spec."""
    values = []
    counts = {}
    for token in arg_spec.split():
        placeholder = PLACEHOLDER.match(token)
        if not placeholder:
            raise ValueError(f"unknown placeholder token {token!r}")
        name = placeholder.group(1)
        index = counts.get(name, 0)
        counts[name] = index + 1
        if name == "path":
            values.append(str(scratch / "probe"))
            continue
        pool = PROBE_VALUES.get(name)
        if not pool:
            raise ValueError(f"no probe value for <{name}>")
        values.append(pool[min(index, len(pool) - 1)])
    return values


def check_binary(binary, scratch):
    errors = []
    help_run = run([binary, "--help"])
    if help_run.returncode != 0:
        return [f"{binary}: --help exited {help_run.returncode}"]
    if not help_run.stdout.startswith("usage: "):
        errors.append(f"{binary}: --help does not start with 'usage: '")

    flags = []
    in_table = False
    for line in help_run.stdout.splitlines():
        if line == "flags:":
            in_table = True
            continue
        if in_table:
            row = FLAG_ROW.match(line)
            if row:
                flags.append((row.group(1), row.group(2).strip()))

    for name, arg_spec in flags:
        try:
            values = probe_args(arg_spec, scratch) if arg_spec else []
        except ValueError as error:
            errors.append(f"{binary}: {name}: {error}")
            continue
        probe = run([binary, name] + values + ["--help"])
        if probe.returncode != 0:
            errors.append(
                f"{binary}: documented flag {name} did not parse "
                f"(exit {probe.returncode}): {probe.stderr.strip()}")

    unknown = run([binary, "--definitely-not-a-flag"])
    if unknown.returncode != 2:
        errors.append(f"{binary}: unknown flag exited "
                      f"{unknown.returncode}, want 2")
    elif "unknown flag" not in unknown.stderr:
        errors.append(f"{binary}: unknown-flag message missing: "
                      f"{unknown.stderr.strip()!r}")
    errors.extend(check_bad_inputs(binary, scratch))
    return errors, len(flags)


def check_bad_inputs(binary, scratch):
    errors = []
    probes = BAD_INPUT_PROBES.get(Path(binary).name, [])
    for index, (argv, contents) in enumerate(probes):
        path = scratch / f"bad_input_{index}"
        if contents is not None:
            path.write_text(contents)
        args = [str(path) if arg == "{path}" else arg for arg in argv]
        bad = run([binary] + args)
        lines = bad.stderr.strip().splitlines()
        if bad.returncode != 1 or len(lines) != 1:
            errors.append(
                f"{binary}: bad input {args} (contents {contents!r}) exited "
                f"{bad.returncode} with stderr {bad.stderr.strip()!r}; want "
                f"exit 1 and one error line")
    return errors


def main():
    binaries = sys.argv[1:]
    if not binaries:
        print("usage: check_cli_help.py <binary> [<binary>...]",
              file=sys.stderr)
        sys.exit(2)
    failures = []
    probed = 0
    with tempfile.TemporaryDirectory(prefix="doda_cli_help_") as scratch:
        for binary in binaries:
            result = check_binary(binary, Path(scratch))
            if isinstance(result, list):
                failures.extend(result)
            else:
                errors, count = result
                failures.extend(errors)
                probed += count
    for failure in failures:
        print(f"check_cli_help: {failure}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"check_cli_help: OK ({len(binaries)} binaries, "
          f"{probed} documented flags probed)")


if __name__ == "__main__":
    main()
