#!/bin/sh
# Code mass of the program: the lines, and the non-blank, non-comment
# lines, of every *.cpp and *.hpp under src/ and tools/. A comment line
# is one whose first non-blank characters are `//` (the sources use no
# block comments of their own).
#
# Given a git revision, it also counts that revision's files, read
# with `git ls-tree` / `git show` (no checkout), and prints the
# difference: the net lines a change quotes (the CI `docs` job fetches
# the parent commit and logs `code_mass.sh HEAD^`). Without one it
# reads only the working tree. Informational: it never fails on the
# counts.
#
# usage: code_mass.sh [REV]
set -eu

cd "$(dirname "$0")/.."

# stdin: one file's text; prints "<lines> <code lines>".
count() {
  awk '{ n++ } !/^[ \t]*(\/\/|$)/ { c++ } END { printf "%d %d\n", n, c }'
}

# stdin: "<lines> <code lines>" rows; prints their sums.
total() {
  awk '{ n += $1; c += $2 } END { printf "%d %d\n", n, c }'
}

tree_counts() {
  find src tools -type f \( -name '*.cpp' -o -name '*.hpp' \) |
    while IFS= read -r file; do count < "$file"; done | total
}

rev_counts() {
  git ls-tree -r --name-only "$1" -- src tools | grep -E '\.(cpp|hpp)$' |
    while IFS= read -r file; do git show "$1:$file" | count; done | total
}

row() {
  printf '%-12s %8s %8s\n' "$1" "$2" "$3"
}

rev="${1:-}"
if [ -n "$rev" ] &&
    ! git rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
  echo "code_mass.sh: unknown revision '$rev'" >&2
  exit 2
fi
set -- $(tree_counts)
tree_lines=$1 tree_code=$2
row "" lines code
row tree "$tree_lines" "$tree_code"
if [ -n "$rev" ]; then
  set -- $(rev_counts "$rev")
  row "$(git rev-parse --short "$rev")" "$1" "$2"
  row net "$((tree_lines - $1))" "$((tree_code - $2))"
fi
