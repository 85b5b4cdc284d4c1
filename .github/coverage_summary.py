#!/usr/bin/env python3
"""Summarizes a --coverage build for the CI coverage gate.

  coverage_summary.py LIBRARY_JSON CALLERS_JSON OUT_DIR

LIBRARY_JSON is `gcov --json-format --stdout -m` over the nexus library's
.gcda files, CALLERS_JSON the same over the test and example objects'.
Run from the repository root. Writes, sorted byte-wise:

  OUT_DIR/line_coverage.txt            "src/<file>.cc: <pct>% of <lines>"
  OUT_DIR/never_executed_functions.txt src/ functions no copy ever entered

A src/ function is a definition in a src/ file, named by gcov's demangled
name. It counts as run when any copy of it was entered: every translation
unit that inlines a header function, and every instantiation of a
template, has its own copy. The per-function entry counts are read, not
gcov's per-function line summaries, because one gcov run credits a header
line to the first copy that contains it and reports no lines for the
others, even those that ran. The library objects name the functions; the
tests and examples, which link their own copies of the inline functions
they call, can mark a library function as run but add none of their own.
"""

import json
import os
import sys


def sources(path):
    """Yields (repository-relative path, record) for every source file of a
    file of one-per-line gcov JSON documents."""
    with open(path) as stream:
        for line in stream:
            if line.strip():
                for source in json.loads(line)["files"]:
                    yield os.path.relpath(source["file"]), source


def where(file, function):
    return file, function["start_line"], function["start_column"]


def main(library, callers, out):
    names = {}  # Definition -> the names of its copies.
    ran = {}    # Definition -> whether any copy was entered.
    lines = {}  # src/*.cc file -> {line number: executed}
    for file, source in sources(library):
        if not file.startswith("src/"):
            continue
        for function in source["functions"]:
            definition = where(file, function)
            names.setdefault(definition, set()).add(function["demangled_name"])
            ran[definition] = ran.get(definition, False) or function["execution_count"] > 0
        if file.endswith(".cc"):
            executed = lines.setdefault(file, {})
            for line in source["lines"]:
                number = line["line_number"]
                executed[number] = executed.get(number, False) or line["count"] > 0
    for file, source in sources(callers):
        for function in source["functions"]:
            definition = where(file, function)
            if definition in ran and function["execution_count"] > 0:
                ran[definition] = True

    with open(os.path.join(out, "line_coverage.txt"), "w") as report:
        for file in sorted(lines):
            executed = lines[file]
            share = 100.0 * sum(executed.values()) / len(executed) if executed else 0.0
            report.write(f"{file}: {share:.2f}% of {len(executed)}\n")
    never = sorted(name for definition, entered in ran.items() if not entered
                   for name in names[definition])
    with open(os.path.join(out, "never_executed_functions.txt"), "w") as report:
        report.writelines(name + "\n" for name in never)
    print(f"{len(never)} src/ functions never executed")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
