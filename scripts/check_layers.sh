#!/bin/sh
# Fails when a file under src/ includes a header from a src/ directory
# that docs/ARCHITECTURE.md's layer diagram puts above it or beside it.
# Dependencies point downward only; the allow-lists below are that
# diagram, one line per src/ directory: the directories its files may
# include besides their own. The only sideways edges are the peer
# edges the domain layers have always had (traffic -> power; solar ->
# power, traffic; corridor -> power, rf, traffic). Every offending
# include is printed as `file:line: include`. A src/ directory missing
# from the table fails too, so a new layer is placed on purpose.
#
# Usage: scripts/check_layers.sh [repo-root]   (default: .)
set -u

root="${1:-.}"
status=0

allowed() {
  case "$1" in
    util) echo "" ;;
    obs) echo "util" ;;
    exec) echo "obs util" ;;
    rf) echo "exec obs util" ;;
    power) echo "rf exec obs util" ;;
    traffic) echo "power rf exec obs util" ;;
    solar) echo "power traffic rf exec obs util" ;;
    corridor) echo "power rf traffic exec obs util" ;;
    sim) echo "corridor power solar traffic rf exec obs util" ;;
    cache) echo "obs util" ;;
    core) echo "cache sim corridor power solar traffic rf exec obs util" ;;
    orch) echo "core cache sim corridor power solar traffic rf exec obs util" ;;
    *) echo "?" ;;
  esac
}

for dir in "$root"/src/*/; do
  layer=$(basename "$dir")
  allow=$(allowed "$layer")
  if [ "$allow" = "?" ]; then
    echo "UNPLACED LAYER: src/$layer has no row in scripts/check_layers.sh"
    status=1
    continue
  fi
  for file in "$dir"*; do
    [ -f "$file" ] || continue
    # `#include "<dir>/..."` lines, as `<line>:<dir>`.
    includes=$(grep -n '^[[:space:]]*#[[:space:]]*include[[:space:]]*"[^"/]*/' \
        "$file" | sed 's/^\([0-9]*\):[^"]*"\([^"/]*\)\/.*/\1:\2/') || true
    for entry in $includes; do
      line=${entry%%:*}
      target=${entry#*:}
      [ "$target" = "$layer" ] && continue
      case " $allow " in
        *" $target "*) continue ;;
      esac
      echo "LAYER VIOLATION: src/$layer/$(basename "$file"):$line:" \
           "$(sed -n "${line}p" "$file")"
      status=1
    done
  done
done

if [ "$status" -eq 0 ]; then
  echo "layers OK"
fi
exit $status
