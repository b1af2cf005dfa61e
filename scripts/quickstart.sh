#!/usr/bin/env bash
# The README quickstart on the bundled mini-world data, end to end, with its
# error cases.
#
# Usage: bash scripts/quickstart.sh CLI OUTDIR
#   CLI     the command that runs the command line, split on spaces: the
#           installed console script "assemblage-shapley", or
#           "python -m assemblage_shapley.cli" with the package importable
#   OUTDIR  where every output goes; created if it does not exist
#
# The checks use `python`, which must import the same package.
#
# Each malformed or missing input must print error: and exit 2 with no
# traceback: a plan with a missing field, a plan whose where constant is
# true, a plan whose scan spells where "wehre", a bad cell in a column the
# plan projects away, a scenario that is not JSON, a scenario whose
# max_copies is 1.5, a gen --alpha of nan, a gen --k of 5000 (10 001 owners,
# over the 4096 cap), a gen of two CSV files with one stem (refused before
# anything is written), a manifest whose scenario has an unknown field, a
# manifest that does not exist, a coalition set over more than 4096 owners,
# a coalition set that is not UTF-8, a coalition set with an owner index of
# true, a coalition set whose total utility, 1e400, is over the float range,
# a shapley --timeout of 0 or nan, a shapley --gamma of 0 (refused before its
# inputs are read), a perm --samples of 0 and a reference report one owner
# short. A gen of a CSV file with a 200 000-character cell, over the csv
# module's default field limit, must succeed. Both iusv routes must give the
# same exact allocation, owner files with a repeated line must assemble to
# the same bytes, the perm run must report an error rate, and the bench
# matrix's CSV must read back equal to its JSON, with every cell ok. A second matrix, of a cell with no
# method, one with gamma true and one with seed "x", must report each cell
# as an error, and its CSV must read back equal to its JSON too.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 CLI OUTDIR" >&2
  exit 2
fi
read -ra cli <<< "$1"
out=$2
data="$(cd "$(dirname "${BASH_SOURCE[0]}")/../data/mini-world" && pwd)"
mkdir -p "$out"

# expect_error WHAT ARG...: the command line run with ARG... must exit 2
# and print error: first on stderr, with no traceback.
expect_error() {
  local what=$1 rc=0 err
  shift
  "${cli[@]}" "$@" 2> "$out/stderr.txt" || rc=$?
  err=$(cat "$out/stderr.txt")
  if [[ $rc -ne 2 || $err != error:* || $err == *Traceback* ]]; then
    echo "$what: exit $rc, stderr: $err" >&2
    exit 1
  fi
  echo "$what: exit 2, $err"
}

"${cli[@]}" gen "$data/customers.csv" "$data/orders.csv" "$data/items.csv" \
  --schema "$data/schema.json" --scenario "$data/scenario.json" --out "$out/owners"
"${cli[@]}" assemble --manifest "$out/owners/manifest.json" \
  --plan "$data/plan.json" --out "$out/coalition.json"

echo '{"op": "scan"}' > "$out/bad_plan.json"
expect_error "plan with a missing field" assemble --manifest "$out/owners/manifest.json" \
  --plan "$out/bad_plan.json" --out "$out/bad.json"

echo '{"op": "scan", "table": "items", "where": {"category": true}}' > "$out/bool_plan.json"
expect_error "plan with a true where constant" assemble \
  --manifest "$out/owners/manifest.json" --plan "$out/bool_plan.json" --out "$out/bad.json"

echo '{"op": "scan", "table": "items", "wehre": {"category": "c1"}}' > "$out/wehre_plan.json"
expect_error "plan with an unknown key" assemble \
  --manifest "$out/owners/manifest.json" --plan "$out/wehre_plan.json" --out "$out/bad.json"

# A cell the plan projects away is not parsed but is still checked.
mkdir -p "$out/bad_price"
printf 'id,cls,price\n1,c1,3/2\n2,c2,1/0\n' > "$out/bad_price/cat0.csv"
echo '{"n_owners": 1, "tables": {"cat": {"schema": ["id", "cls", "price"],
  "types": {"id": "integer", "price": "decimal"}, "owners": {"0": "cat0.csv"}}}}' \
  > "$out/bad_price/manifest.json"
echo '{"op": "project", "columns": ["id", "cls"],
  "input": {"op": "scan", "table": "cat"}}' > "$out/bad_price/plan.json"
expect_error "projected-away 1/0" assemble --manifest "$out/bad_price/manifest.json" \
  --plan "$out/bad_price/plan.json" --out "$out/bad.json"

echo '{' > "$out/bad_scenario.json"
expect_error "scenario not JSON" gen "$data/items.csv" --scenario "$out/bad_scenario.json" \
  --out "$out/bad_owners"

echo '{"max_copies": 1.5}' > "$out/float_scenario.json"
expect_error "scenario with max_copies 1.5" gen "$data/items.csv" \
  --scenario "$out/float_scenario.json" --out "$out/bad_owners"

expect_error "gen --alpha nan" gen "$data/items.csv" --alpha nan --out "$out/bad_owners"

expect_error "gen over the owner cap" gen "$data/customers.csv" "$data/orders.csv" \
  "$data/items.csv" --k 5000 --out "$out/bad_owners"

mkdir -p "$out/same_stem"
cp "$data/items.csv" "$out/same_stem/items.csv"
rm -rf "$out/same_stem_owners"
expect_error "gen of two files with one stem" gen "$data/items.csv" "$out/same_stem/items.csv" \
  --out "$out/same_stem_owners"
if [[ -e "$out/same_stem_owners" ]]; then
  echo "gen of two files with one stem wrote $out/same_stem_owners" >&2
  exit 1
fi

# No field is refused for its length.
mkdir -p "$out/long_cell"
python -c 'print("note"); print("x" * 200000)' > "$out/long_cell/notes.csv"
"${cli[@]}" gen "$out/long_cell/notes.csv" --out "$out/long_cell_owners"

python - "$out/owners/manifest.json" "$out/owners/bad_manifest.json" <<'EOF'
import json, sys
manifest = json.load(open(sys.argv[1]))
manifest["scenario"] = {"nope": 1}
json.dump(manifest, open(sys.argv[2], "w"))
EOF
expect_error "manifest scenario with an unknown field" assemble \
  --manifest "$out/owners/bad_manifest.json" --plan "$data/plan.json" --out "$out/bad.json"

expect_error "manifest that does not exist" assemble --manifest "$out/nope/manifest.json" \
  --plan "$data/plan.json" --out "$out/bad.json"

echo '{"schema": ["x"], "n_owners": 4097,
  "tuples": [{"values": [1], "utility": "1", "syntheses": [[0]]}]}' > "$out/wide_coalition.json"
expect_error "coalition over 4097 owners" shapley --method iusv \
  --coalition "$out/wide_coalition.json" --out "$out/wide.json"

printf '\xff\xfe{}' > "$out/utf16_coalition.json"
expect_error "coalition set that is not UTF-8" shapley --method iusv \
  --coalition "$out/utf16_coalition.json" --out "$out/utf16.json"

echo '{"schema": ["x"], "n_owners": 3,
  "tuples": [{"values": [1], "utility": "1", "syntheses": [[true], [2]]}]}' > "$out/true_owner.json"
expect_error "coalition with an owner of true" shapley --method iusv \
  --coalition "$out/true_owner.json" --out "$out/true_owner_report.json"

echo '{"schema": ["x"], "n_owners": 2,
  "tuples": [{"values": [1], "utility": "1e400", "syntheses": [[0], [1]]}]}' > "$out/huge_utility.json"
expect_error "coalition utility over the float range" shapley --method iusv \
  --coalition "$out/huge_utility.json" --out "$out/huge_utility_report.json"

expect_error "shapley --timeout 0" shapley --method iusv --coalition "$out/coalition.json" \
  --timeout 0 --out "$out/no_time.json"

expect_error "shapley --timeout nan" shapley --method iusv --coalition "$out/coalition.json" \
  --timeout nan --out "$out/no_time.json"

expect_error "shapley --gamma 0" shapley --method iusv --gamma 0 \
  --manifest "$out/nope/manifest.json" --plan "$data/plan.json" --out "$out/no_gamma.json"

expect_error "shapley --samples 0" shapley --method perm --samples 0 \
  --manifest "$out/owners/manifest.json" --plan "$data/plan.json" --out "$out/no_samples.json"

"${cli[@]}" shapley --method iusv --manifest "$out/owners/manifest.json" \
  --plan "$data/plan.json" --out "$out/exact.json"
"${cli[@]}" shapley --method iusv --coalition "$out/coalition.json" --out "$out/exact2.json"
python - "$out/exact.json" "$out/exact2.json" <<'EOF'
import json, sys
a, b = (json.load(open(path))[0]["allocation_exact"] for path in sys.argv[1:])
if a is None or a != b:
    sys.exit(f"allocation_exact differs between the routes: {a} != {b}")
print(f"both routes: {len(a)} owners, identical exact allocation")
EOF

# The exact report with one share removed, as a reference: refused before
# the run.
python - "$out/exact.json" "$out/short.json" <<'EOF'
import json, sys
reports = json.load(open(sys.argv[1]))
reports[0]["allocation_exact"].pop()
json.dump(reports, open(sys.argv[2], "w"))
EOF
expect_error "reference one owner short" shapley --method iusv \
  --manifest "$out/owners/manifest.json" --plan "$data/plan.json" \
  --reference "$out/short.json" --out "$out/short_run.json"

# An owner that lists one of its rows twice: the scan collapses the repeat,
# so the coalition set is byte-identical.
rm -rf "$out/owners_dup"
cp -r "$out/owners" "$out/owners_dup"
dup="$out/owners_dup/orders__owner0005.csv"
sed -n 2p "$dup" >> "$dup"
"${cli[@]}" assemble --manifest "$out/owners_dup/manifest.json" \
  --plan "$data/plan.json" --out "$out/coalition_dup.json"
cmp "$out/coalition.json" "$out/coalition_dup.json"
echo "owner file with a repeated line: identical coalition set"

"${cli[@]}" shapley --method perm --samples 16 --seed 0 \
  --manifest "$out/owners/manifest.json" --plan "$data/plan.json" \
  --reference "$out/exact.json" --out "$out/perm.json"
cat > "$out/matrix.json" <<'EOF'
{"cells": [
  {"label": "iusv-g1", "method": "iusv", "gamma": 1.0},
  {"label": "iusv-g2", "method": "iusv", "gamma": 2.0},
  {"label": "perm-16", "method": "perm", "samples": 16, "seed": 0}
]}
EOF
"${cli[@]}" bench --matrix "$out/matrix.json" \
  --manifest "$out/owners/manifest.json" --plan "$data/plan.json" \
  --timeout 120 --out "$out/bench.json" --csv-out "$out/bench.csv"
python - "$out" <<'EOF'
import json, sys
from assemblage_shapley.bench import reports_from_csv, reports_from_json
out = sys.argv[1]
metrics = json.load(open(f"{out}/perm.json"))[0]["metrics"]
if "error_rate" not in metrics:
    sys.exit(f"perm reported no error_rate: {metrics}")
from_csv, from_json = reports_from_csv(f"{out}/bench.csv"), reports_from_json(f"{out}/bench.json")
if from_csv != from_json:
    sys.exit("bench CSV reads back different from its JSON")
if [r.status for r in from_json] != ["ok"] * 3:
    sys.exit(f"bench cells not all ok: {[r.status for r in from_json]}")
print(f"perm error_rate {metrics['error_rate']}; bench CSV equals JSON, 3 cells ok")
EOF

# Knobs of the wrong type: each cell is an error report that the CSV reads
# back as the JSON has it.
cat > "$out/bad_matrix.json" <<'EOF'
{"cells": [
  {"label": "no-method"},
  {"label": "gamma-true", "method": "iusv", "gamma": true},
  {"label": "seed-text", "method": "iusv", "seed": "x"}
]}
EOF
"${cli[@]}" bench --matrix "$out/bad_matrix.json" \
  --manifest "$out/owners/manifest.json" --plan "$data/plan.json" \
  --timeout 120 --out "$out/bad_bench.json" --csv-out "$out/bad_bench.csv"
python - "$out" <<'EOF'
import sys
from assemblage_shapley.bench import reports_from_csv, reports_from_json
out = sys.argv[1]
from_csv = reports_from_csv(f"{out}/bad_bench.csv")
from_json = reports_from_json(f"{out}/bad_bench.json")
if from_csv != from_json:
    sys.exit("bad-knob bench CSV reads back different from its JSON")
if [r.status for r in from_json] != ["error"] * 3:
    sys.exit(f"bad-knob bench cells not all error: {[r.status for r in from_json]}")
print("bad-knob bench: 3 error cells; CSV equals JSON")
EOF
echo "quickstart: all checks passed"
