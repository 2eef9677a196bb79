#!/usr/bin/env bash
# The "same bytes" rule as one command: everything the experiment CLI
# and the examples print must be byte-identical between an earlier
# revision and the working tree.
#
#   scripts/same_bytes.sh <rev> [workdir]
#
# Compared, one line per artifact:
#   - the stdout of every `tables` item except `micro` (wall clock). The
#     item list is read from the working tree's `tables` binary (its
#     unknown-item message lists them), so a new item is covered without
#     editing this script; an item <rev> does not know is reported NEW;
#   - the traced Table 1 run: `tables --trace t.jsonl --pcap t.pcap`, its
#     stdout and both files;
#   - the stdout of each example in examples/*.rs.
#
# <rev> is exported with `git archive` into <workdir>/base (default
# workdir: a fresh temporary directory) and built there with its own
# target directory; the working tree is built in place. Exits 1 if any
# artifact differs, 2 on a usage error.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <rev> [workdir]" >&2
  exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
base=$work/base
rm -rf "$base" "$work/out"
mkdir -p "$base" "$work/out/base" "$work/out/head"

git -C "$root" archive "$(git -C "$root" rev-parse --verify "$rev^{commit}")" | tar -x -C "$base"

build() {
  (cd "$1" && cargo build -q --release --offline --workspace && cargo build -q --release --offline --examples)
}
echo "building $rev in $base ..."
build "$base"
echo "building the working tree ..."
build "$root"

# The items a `tables` binary accepts, from its unknown-item message.
items_of() {
  { "$1/target/release/tables" --list-items-by-typo 2>&1 >/dev/null || true; } | sed -n 's/.*; items: //p'
}
head_items=$(items_of "$root")
base_items=" $(items_of "$base") "
if [ -z "$head_items" ]; then
  echo "cannot read the item list from $root/target/release/tables" >&2
  exit 2
fi
examples=$(cd "$root/examples" && ls -- *.rs | sed 's/\.rs$//')

# Runs one artifact's command in both trees' output directories; the
# captured stdout ends with the command's exit status.
capture() {
  local name=$1
  shift
  for side in base head; do
    local tree=$root
    [ "$side" = base ] && tree=$base
    local status=0
    (cd "$work/out/$side" && "$tree/$@") > "$work/out/$side/$name" 2>/dev/null || status=$?
    echo "exit $status" >> "$work/out/$side/$name"
  done
}

differ=0
total=0
report() {
  local label=$1 file=$2
  total=$((total + 1))
  if cmp -s "$work/out/base/$file" "$work/out/head/$file"; then
    echo "same    $label"
  else
    echo "DIFFERS $label"
    differ=$((differ + 1))
  fi
}

for item in $head_items; do
  [ "$item" = micro ] && continue
  case "$base_items" in
    *" $item "*) ;;
    *)
      echo "NEW     tables $item (not an item at $rev)"
      continue
      ;;
  esac
  capture "tables-$item.txt" target/release/tables "$item"
  report "tables $item" "tables-$item.txt"
done

capture tables-trace.txt target/release/tables --trace t.jsonl --pcap t.pcap
report "tables --trace t.jsonl --pcap t.pcap (stdout)" tables-trace.txt
report "t.jsonl" t.jsonl
report "t.pcap" t.pcap

for ex in $examples; do
  capture "example-$ex.txt" "target/release/examples/$ex"
  report "examples/$ex" "example-$ex.txt"
done

if [ "$differ" -ne 0 ]; then
  echo "$differ of $total artifacts differ from $rev (outputs in $work/out)"
  exit 1
fi
echo "all $total artifacts identical to $rev"
