#!/usr/bin/env bash
# Judge the working tree's end-to-end benchmark against a parent
# revision the way BENCHMARK.json bounds it:
#
#   scripts/bench_compare.sh PARENT_REV [OUT_DIR]
#
# The parent is checked out into a temporary git worktree (removed on
# exit). Both sides run loadbench `--repeat 10` in two rounds with the
# order swapped, so a drift in host speed does not favour one side:
# round 1 runs the parent, then the change, at seed 1000; round 2 runs
# the change, then the parent, at seed 2000. Each round then prints
# loadbench's `--compare` table (parent as A, change as B) under the
# bounds in BENCHMARK.json. The exit status is non-zero when either
# table reads `worse`. Four `--repeat 10` runs take about 70 minutes on
# a 2-core host. OUT_DIR, when given, keeps the four summary files;
# otherwise they go with the temporary directory (honours TMPDIR).

set -euo pipefail
cd "$(dirname "$0")/.."
repo="$(pwd)"

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 PARENT_REV [OUT_DIR]" >&2
  exit 2
fi
parent_rev="$(git rev-parse --verify "$1^{commit}")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_compare.XXXXXX")"
out="${2:-$tmp}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

cleanup() {
  git -C "$repo" worktree remove --force "$tmp/parent" 2>/dev/null || true
  git -C "$repo" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/parent" "$parent_rev"

# The command BENCHMARK.json names, run from one side's checkout.
loadbench() {
  local dir="$1"
  shift
  (cd "$dir" && cargo run --release --offline --quiet \
    --manifest-path loadbench/Cargo.toml -- "$@")
}

checkout() {
  if [[ "$1" == parent ]]; then echo "$tmp/parent"; else echo "$repo"; fi
}

# Build both sides first, so a compile error fails before an hour of runs.
for side in parent change; do
  (cd "$(checkout "$side")" && cargo build --release --offline --quiet \
    --manifest-path loadbench/Cargo.toml)
done

for run in "parent 1000" "change 1000" "change 2000" "parent 2000"; do
  read -r side seed <<< "$run"
  echo "== $side: --repeat 10 --seed $seed ==" >&2
  loadbench "$(checkout "$side")" --repeat 10 --seed "$seed" \
    --out "$out/$side-$seed.json" > /dev/null
done

status=0
for seed in 1000 2000; do
  echo "== seed $seed: parent ($parent_rev) vs change, BENCHMARK.json bounds =="
  loadbench "$repo" --compare "$out/parent-$seed.json" "$out/change-$seed.json" \
    --bounds "$repo/BENCHMARK.json" || status=1
done

if [[ -n "$(git -C "$repo" status --porcelain -- loadbench)" ]]; then
  echo "bench_compare: the runs left files under loadbench/" >&2
  status=1
fi
exit "$status"
