#!/usr/bin/env bash
# The "same bytes" rule as one command: everything the experiment CLI
# and the examples print must be byte-identical between an earlier
# revision and the working tree, and to the checked-in artifacts.sha256.
#
#   scripts/same_bytes.sh --digests        # the working tree's digests
#   scripts/same_bytes.sh <rev> [workdir]  # the working tree against <rev>
#
# The artifacts, each run once from a release build:
#   - the stdout of every `tables` item. The item list is read from the
#     tree's own `tables` binary (its unknown-item message lists them), so
#     a new item is covered without editing this script;
#   - the traced Table 1 run: `tables --trace t.jsonl --pcap t.pcap`, its
#     stdout and both files;
#   - the stdout of each example in examples/*.rs.
# A captured stdout ends with its command's exit status. Their digests
# are a `rustc -V` line, then one `<name> <byte length> <sha256>` line per
# artifact, where <name> is the file the artifact was captured in.
#
# --digests builds the working tree and prints its digests on stdout;
# `ci.sh` diffs them against artifacts.sha256, which a change that moves
# an artifact on purpose rewrites with `--digests > artifacts.sha256`.
#
# <rev> is exported with `git archive` into <workdir>/base (default
# workdir: a fresh temporary directory) and built there with its own
# target directory; the working tree is built in place. Both sides'
# artifacts are kept in <workdir>/out/{base,head}, and each artifact of
# the working tree is reported `same`, `DIFFERS` or, if <rev> does not
# have it, `NEW`.
#
# Exits 1 if any command of either tree fails or any artifact differs,
# 2 on a usage error.
set -euo pipefail
export LC_ALL=C # one sort order for the item and example lists

if [ $# -lt 1 ] || [ $# -gt 2 ] || { [ "$1" = --digests ] && [ $# -ne 1 ]; }; then
  echo "usage: $0 --digests | <rev> [workdir]" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)

build() {
  (cd "$1" && cargo build -q --release --offline --workspace && cargo build -q --release --offline --examples)
}

# digests <tree> <out>: runs every artifact of the built <tree> in <out>
# and prints the digests. Returns 1 if any command exited non-zero.
digests() {
  local tree=$1 out=$2 failed=0
  (cd "$tree" && rustc -V)
  local items
  items=$({ "$tree/target/release/tables" --list-items-by-typo 2>&1 >/dev/null || true; } | sed -n 's/.*; items: //p')
  if [ -z "$items" ]; then
    echo "cannot read the item list from $tree/target/release/tables" >&2
    return 2
  fi

  digest() {
    printf '%s %s %s\n' "$1" "$(wc -c < "$out/$1")" "$(sha256sum < "$out/$1" | cut -d' ' -f1)"
  }
  capture() {
    local name=$1 status=0
    shift
    (cd "$out" && "$tree/$1" "${@:2}") > "$out/$name" 2> "$out/$name.stderr" || status=$?
    echo "exit $status" >> "$out/$name"
    if [ "$status" -ne 0 ]; then
      echo "$name: \`$*\` in $tree exited $status" >&2
      cat "$out/$name.stderr" >&2
      failed=1
    fi
    rm "$out/$name.stderr"
    digest "$name"
  }

  for item in $items; do
    capture "tables-$item.txt" target/release/tables "$item"
  done
  capture tables-trace.txt target/release/tables --trace t.jsonl --pcap t.pcap
  digest t.jsonl
  digest t.pcap
  for example in "$tree"/examples/*.rs; do
    example=$(basename "$example" .rs)
    capture "example-$example.txt" "target/release/examples/$example"
  done
  return "$failed"
}

if [ "$1" = --digests ]; then
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
  build "$root" >&2
  digests "$root" "$out"
  exit
fi

rev=$1
work=${2:-$(mktemp -d)}
base=$work/base
rm -rf "$base" "$work/out"
mkdir -p "$base" "$work/out/base" "$work/out/head"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$rev^{commit}")" | tar -x -C "$base"

echo "building $rev in $base ..."
build "$base"
echo "building the working tree ..."
build "$root"
failed=0
digests "$base" "$work/out/base" > "$work/out/base.sha256" || failed=$((failed + 1))
digests "$root" "$work/out/head" > "$work/out/head.sha256" || failed=$((failed + 1))

differ=0
total=0
while read -r name rest; do
  was=$(awk -v name="$name" 'NR > 1 && $1 == name { print $2, $3 }' "$work/out/base.sha256")
  if [ -z "$was" ]; then
    echo "NEW     $name (not an artifact at $rev)"
    continue
  fi
  total=$((total + 1))
  if [ "$was" = "$rest" ]; then
    echo "same    $name"
  else
    echo "DIFFERS $name"
    differ=$((differ + 1))
  fi
done < <(tail -n +2 "$work/out/head.sha256")

if [ "$differ" -ne 0 ] || [ "$failed" -ne 0 ]; then
  echo "$differ of $total artifacts differ from $rev; $failed of 2 trees had a failing command (outputs in $work/out)"
  exit 1
fi
echo "all $total artifacts identical to $rev"
