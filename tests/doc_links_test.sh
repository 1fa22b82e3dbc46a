#!/bin/sh
# tools/check_doc_links.py against the fixtures under tests/doc_links/:
# `live` links headings that start with inline code (GitHub keeps the
# code's text in the anchor) and must pass; `dead` links a `#` line inside
# a fenced block, which is no heading, and must fail with exit 1.
# Usage: doc_links_test.sh REPO_ROOT
set -u
root="$1"
checker="$root/tools/check_doc_links.py"
fixtures="$root/tests/doc_links"
python3 "$checker" --root "$fixtures/live" || {
  echo "doc_links_test: live fixture reported dead links" >&2
  exit 1
}
python3 "$checker" --root "$fixtures/dead"
status=$?
if [ "$status" -ne 1 ]; then
  echo "doc_links_test: dead fixture exited $status, expected 1" >&2
  exit 1
fi
echo "doc_links_test: OK"
