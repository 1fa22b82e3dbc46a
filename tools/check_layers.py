#!/usr/bin/env python3
"""Fail when a file under src/ includes a header from a higher layer.

The layers, lowest first (directories on one line share a layer and may
include each other):

  util, stats, prob
  sim
  workload, heuristics, pruning
  core
  fed
  exp

A file may include headers from its own layer and the layers below it.
Every `#include "<dir>/..."` naming a higher layer's directory is reported
as `<file>:<line>: <layer> -> <layer>`, and the script exits 1.  An include
of a directory that is not in the table is an error too, so a new
directory has to be placed in the stack before it can be used.

Usage:
  tools/check_layers.py [--root REPO_ROOT]
"""

import argparse
import os
import re
import sys

LAYERS = [
    ("util", "stats", "prob"),
    ("sim",),
    ("workload", "heuristics", "pruning"),
    ("core",),
    ("fed",),
    ("exp",),
]
RANK = {d: rank for rank, dirs in enumerate(LAYERS) for d in dirs}

# The one allowed upward edge: core::Simulation is the one-cluster front end
# of fed::FederatedSimulation.  perfbench pins it (it constructs
# core::Simulation) until the perfbench catch-up moves the entry point.
ALLOWED = {("core/simulation.cpp", "fed/federation.h")}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/([^"]+)"')


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".")
    args = parser.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")

    errors = []
    checked = 0
    for dirpath, _, names in sorted(os.walk(src)):
        for name in sorted(names):
            if not name.endswith((".h", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, src).replace(os.sep, "/")
            own = rel.split("/", 1)[0]
            if own not in RANK:
                errors.append(f"{rel}: directory {own}/ is not in the "
                              f"layer table")
                continue
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    checked += 1
                    target = m.group(1)
                    header = f"{target}/{m.group(2)}"
                    if target not in RANK:
                        errors.append(f"{rel}:{lineno}: includes {header}, "
                                      f"whose directory is not in the "
                                      f"layer table")
                    elif (RANK[target] > RANK[own] and
                          (rel, header) not in ALLOWED):
                        errors.append(f"{rel}:{lineno}: {own} -> {target} "
                                      f"(includes {header})")

    for line in errors:
        print(f"LAYER  {line}")
    if errors:
        print(f"\ncheck_layers: {len(errors)} violation(s)")
        return 1
    print(f"check_layers: {checked} include(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
