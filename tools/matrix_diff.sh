#!/usr/bin/env bash
# Compare the preset x controller matrix of a revision with the working tree.
#
#     tools/matrix_diff.sh REV
#
# Extracts REV with `git archive` into a temporary directory, runs
# tools/preset_matrix.sh there and in the working tree, and prints
# `diff -r` of the two output directories. Exits with diff's status: 0 when
# every artifact, exit code and stderr file is byte-identical, 1 when some
# differ, 2 when a step fails. The temporary directory is removed on exit;
# nothing is written to the repository or its working tree.
set -u -o pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 64
fi
cd "$(dirname "$0")/.." || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/tree" || exit 2
git archive "$1" | tar -x -C "$tmp/tree" || exit 2
bash "$tmp/tree/tools/preset_matrix.sh" "$tmp/rev" || exit 2
bash tools/preset_matrix.sh "$tmp/work" || exit 2
diff -r "$tmp/rev" "$tmp/work"
