#!/usr/bin/env bash
# End-to-end suite of agl_cli (ctest -L cli):
#
#   cli_test.sh <path-to-agl_cli>
#
# Drives gendata -> graphflat -> analytics -> train -> infer -> serve on a
# small generated graph and checks that
#   * every --coord (process) artifact is byte-identical to the in-process
#     one, also when a worker is killed mid-epoch and relaunched;
#   * training off the DFS part files (--stream) writes the same model as
#     training over the loaded dataset;
#   * the served scores equal the offline inference scores, and a
#     --features dataset kept fresh by serve equals a cold graphflat, also
#     in a 2-shard layout (and a layout mismatch is an error);
#   * bad inputs (a model artifact that does not fit the flags, a ragged
#     node table, a malformed number in a serve script line, an unknown
#     task) exit 1 with an `error:` line.
set -euo pipefail

CLI=${1:?usage: cli_test.sh <path-to-agl_cli>}
T=$(mktemp -d "${TMPDIR:-/tmp}/agl_cli_test.XXXXXX")
trap 'rm -rf "$T"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}
same_dataset() {
  diff -r "$1" "$2" >/dev/null || fail "$3: $1 and $2 differ"
}
same_file() {
  cmp -s "$1" "$2" || fail "$3: $1 and $2 differ"
}
# expect_error <what> <agl_cli args...>: exit status 1 and an `error:` line.
expect_error() {
  local what=$1 status=0
  shift
  "$CLI" "$@" >"$T/out" 2>"$T/err" || status=$?
  if [ "$status" -ne 1 ]; then
    cat "$T/err" >&2
    fail "$what: exit $status, want 1"
  fi
  grep -q '^error: ' "$T/err" || fail "$what: no error line"
  echo "ok: $what -> $(grep -m1 '^error: ' "$T/err" | cut -c1-160)"
}

N="$T/nodes.csv"
E="$T/edges.csv"
"$CLI" gendata -d uug -n 200 -f 8 --nodes-out "$N" --edges-out "$E"

# GraphFlat: 2 shards as threads vs as processes.
flat=(-n "$N" -e "$E" --shards 2 --workers 2)
"$CLI" graphflat "${flat[@]}" -o "$T/dfs:features"
"$CLI" graphflat "${flat[@]}" --coord "$T/coord" -o "$T/dfs:features_procs"
same_dataset "$T/dfs/features" "$T/dfs/features_procs" "graphflat --coord"

# Analytics: the values CSV and the --dfs-out dataset.
pr=(pagerank -n "$N" -e "$E" --shards 2)
"$CLI" analytics "${pr[@]}" -o "$T/pr.csv" --dfs-out "$T/dfs:pr"
"$CLI" analytics "${pr[@]}" --coord "$T/coord" -o "$T/pr_procs.csv" \
  --dfs-out "$T/dfs:pr_procs"
same_file "$T/pr.csv" "$T/pr_procs.csv" "analytics --coord"
same_dataset "$T/dfs/pr" "$T/dfs/pr_procs" "analytics --coord --dfs-out"

# Training (bsp: the lockstep schedule both substrates replay exactly). The
# model is GraphSAGE, whose normalization reads in-edges only, so a served
# target subset must score exactly as the full offline run.
train=(-i "$T/dfs:features" -m graphsage --sync bsp --workers 2 --epochs 2)
"$CLI" train "${train[@]}" -o "$T/dfs:model" >"$T/train.out"
grep -q 'no validation set' "$T/train.out" ||
  fail "train without --val should say so: $(tail -n1 "$T/train.out")"
"$CLI" train "${train[@]}" --coord "$T/coord" -o "$T/dfs:model_procs"
same_dataset "$T/dfs/model" "$T/dfs/model_procs" "train --coord"
"$CLI" train "${train[@]}" --coord "$T/coord" \
  --worker-failpoints 'trainer.step=crash@2x1' -o "$T/dfs:model_crash" \
  >"$T/crash.out"
grep -q '([1-9][0-9]* restarts)' "$T/crash.out" ||
  fail "the injected worker crash did not force a restart"
same_dataset "$T/dfs/model" "$T/dfs/model_crash" "train after a worker crash"
"$CLI" train "${train[@]}" --val "$T/dfs:features" -o "$T/dfs:model_val" |
  grep -q 'best val metric [0-9]' || fail "train --val reports no metric"

# Streaming: one async worker reads the part files in dataset order, so it
# sees the same batches as training over the loaded dataset.
single=(-i "$T/dfs:features" -m graphsage --workers 1 --epochs 2)
"$CLI" train "${single[@]}" -o "$T/dfs:model_span" >/dev/null
"$CLI" train "${single[@]}" --stream -o "$T/dfs:model_stream" >/dev/null
same_dataset "$T/dfs/model_span" "$T/dfs/model_stream" "train --stream"

# Offline inference, then a two-line serve script over the same model.
model=(-m "$T/dfs:model" --model-type graphsage)
"$CLI" infer "${model[@]}" -n "$N" -e "$E" -o "$T/scores.csv"
printf 'score 0,1,2\nscore 5,7\n' >"$T/ops.txt"
"$CLI" serve "${model[@]}" -n "$N" -e "$E" --script "$T/ops.txt" \
  -o "$T/served.csv"
tail -n +2 "$T/served.csv" | cut -d, -f2- | sort >"$T/served.sorted"
grep -E '^(0|1|2|5|7),' "$T/scores.csv" | sort >"$T/offline.sorted"
rows=$(wc -l <"$T/served.sorted")
[ "$rows" -eq 5 ] || fail "serve scored $rows rows, want 5"
same_file "$T/served.sorted" "$T/offline.sorted" "served vs offline scores"

# --features keeps a flattened dataset fresh: after a feature update it
# equals a cold graphflat of the updated node table, and the summary counts
# the one re-flatten that re-published it.
"$CLI" graphflat -n "$N" -e "$E" -o "$T/dfs:serve_features"
label3=$(grep '^3,' "$N" | cut -d, -f2)
sed "s/^3,.*/3,$label3,1;1;1;1;1;1;1;1/" "$N" >"$T/nodes3.csv"
"$CLI" graphflat -n "$T/nodes3.csv" -e "$E" -o "$T/dfs:cold_features"
printf 'update-features 3 1,1,1,1,1,1,1,1\nscore 3\n' >"$T/mut_ops.txt"
"$CLI" serve "${model[@]}" -n "$N" -e "$E" --script "$T/mut_ops.txt" \
  --features serve_features --store features_store -o "$T/x.csv" \
  >"$T/serve_features.out"
grep -qE '^features\[serve_features\]: 1 re-flatten runs, [1-9][0-9]* dirty targets, 1 publishes$' \
  "$T/serve_features.out" ||
  fail "serve --features summary: $(tail -n1 "$T/serve_features.out")"
same_dataset "$T/dfs/serve_features" "$T/dfs/cold_features" \
  "serve --features vs cold graphflat"
sed "s/^3,$label3,/3,-1,/" "$N" >"$T/unlabelled3.csv"
expect_error "serve --features over tables with another target set" \
  serve "${model[@]}" -n "$T/unlabelled3.csv" -e "$E" --script "$T/ops.txt" \
  --features serve_features --store features_store -o "$T/x.csv"

# A sharded --features dataset: serve must be given its layout
# (--flat-shards, --hub-threshold). Without it the start fails instead of
# re-publishing the dataset in the 1-shard layout; with it the maintained
# dataset equals a cold sharded graphflat of the updated node table.
"$CLI" graphflat "${flat[@]}" -o "$T/dfs:serve_sharded"
"$CLI" graphflat -n "$T/nodes3.csv" -e "$E" --shards 2 --workers 2 \
  -o "$T/dfs:cold_sharded"
expect_error "serve --features over a 2-shard dataset in the 1-shard layout" \
  serve "${model[@]}" -n "$N" -e "$E" --script "$T/mut_ops.txt" \
  --features serve_sharded --store sharded_store -o "$T/x.csv"
"$CLI" serve "${model[@]}" -n "$N" -e "$E" --script "$T/mut_ops.txt" \
  --features serve_sharded --flat-shards 2 --hub-threshold 10000 \
  --store sharded_store -o "$T/x.csv" >/dev/null
same_dataset "$T/dfs/serve_sharded" "$T/dfs/cold_sharded" \
  "serve --features --flat-shards 2 vs cold graphflat --shards 2"

# Bad inputs are clean errors, never aborts.
{ head -n 2 "$N"; tail -n +3 "$N" | sed '1s/;[^;]*$//'; } >"$T/ragged.csv"
expect_error "infer --layers 3 on a 2-layer model" \
  infer "${model[@]}" -n "$N" -e "$E" --layers 3 -o "$T/x.csv"
# Later flags win, so each case overrides one model flag.
for bad in "--layers 3" "--model-type gcn" "--model-type gat" "--hidden 8"; do
  # shellcheck disable=SC2086  # $bad is two words on purpose
  expect_error "serve $bad" serve "${model[@]}" -n "$N" -e "$E" \
    --script "$T/ops.txt" -o "$T/x.csv" $bad
done
expect_error "infer on a ragged node table" \
  infer "${model[@]}" -n "$T/ragged.csv" -e "$E" -o "$T/x.csv"
expect_error "serve on a ragged node table" \
  serve "${model[@]}" -n "$T/ragged.csv" -e "$E" --script "$T/ops.txt" \
  -o "$T/x.csv"
for line in "score 1,x" "remove-edge -1 2"; do
  printf '%s\n' "$line" >"$T/bad_ops.txt"
  expect_error "serve script line '$line'" serve "${model[@]}" -n "$N" \
    -e "$E" --script "$T/bad_ops.txt" -o "$T/x.csv"
done
expect_error "infer on a feature dataset" \
  infer -m "$T/dfs:features" --model-type graphsage -n "$N" -e "$E" \
  -o "$T/x.csv"
expect_error "train -t bogus" train -i "$T/dfs:features" -t bogus \
  -o "$T/dfs:model_bogus"
expect_error "train -t bogus --coord" train "${train[@]}" -t bogus \
  --coord "$T/coord" -o "$T/dfs:model_bogus"
expect_error "train --coord with async" train -i "$T/dfs:features" \
  --coord "$T/coord" -o "$T/dfs:model_async"

echo "PASS"
