#!/usr/bin/env python3
"""Fail on dead relative links in README.md and docs/*.md.

Walks every markdown link whose target is a relative path (external
http(s)/mailto links are skipped), resolves it against the linking file,
and fails (exit 1) when the target does not exist in the repo.  Fragment
targets are checked against the destination file's headings using
GitHub's anchor slugging, so renamed sections break the build instead of
rotting silently.

Usage:
  tools/check_doc_links.py [--root REPO_ROOT]
"""

import argparse
import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
FENCE_RE = re.compile(r"^(```|~~~)")


def strip_fences(text):
    """Drops fenced code blocks (a `#` line inside one is no heading)."""
    lines, out, fenced = text.splitlines(), [], False
    for line in lines:
        if FENCE_RE.match(line.strip()):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def strip_code(text):
    """Drops fenced code blocks and inline code spans (not real links)."""
    return re.sub(r"`[^`]*`", "", strip_fences(text))


def slug(heading):
    """GitHub's heading -> anchor slug (lowercase, drop punctuation,
    spaces to hyphens)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path, cache):
    if path not in cache:
        found = set()
        with open(path, encoding="utf-8") as f:
            text = f.read()
        # Inline code stays: GitHub slugs its text (`slug` unwraps it).
        for line in strip_fences(text).splitlines():
            m = HEADING_RE.match(line)
            if m:
                found.add(slug(m.group(1)))
        cache[path] = found
    return cache[path]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    docs = []
    readme = os.path.join(root, "README.md")
    if os.path.exists(readme):
        docs.append(readme)
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        docs.extend(
            os.path.join(docs_dir, name)
            for name in sorted(os.listdir(docs_dir))
            if name.endswith(".md"))

    anchor_cache = {}
    checked = 0
    dead = []
    for doc in docs:
        with open(doc, encoding="utf-8") as f:
            text = strip_code(f.read())
        rel_doc = os.path.relpath(doc, root)
        for target in LINK_RE.findall(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                dest = os.path.normpath(
                    os.path.join(os.path.dirname(doc), path_part))
            else:
                dest = doc  # pure in-page anchor
            checked += 1
            if not os.path.exists(dest):
                dead.append(f"{rel_doc}: [{target}] -> missing file "
                            f"{os.path.relpath(dest, root)}")
                continue
            if fragment and dest.endswith(".md"):
                if fragment not in anchors_of(dest, anchor_cache):
                    dead.append(f"{rel_doc}: [{target}] -> no heading "
                                f"#{fragment} in {os.path.relpath(dest, root)}")

    for line in dead:
        print(f"DEAD  {line}")
    if dead:
        print(f"\ncheck_doc_links: {len(dead)} dead link(s) "
              f"across {len(docs)} file(s)")
        return 1
    print(f"check_doc_links: {checked} relative link(s) OK "
          f"across {len(docs)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
