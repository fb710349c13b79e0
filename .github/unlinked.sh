#!/usr/bin/env bash
# unlinked.sh prints, one per line and sorted, the qualified name of
# every function declared in a non-test file under internal/ that none
# of the repo's binaries links: cmd/{faultcov,marchsim,prtsim,gfsynth,
# faultvet,benchjson}, every examples/ program and bench/faultbench.
# internal/analysis (faultvet's analyzers) is left out.
#
# Each binary is built with -gcflags=all=-l, so no function disappears
# by inlining, and its `go tool nm` text symbols are compared with the
# declarations.  Generic code is named once per instantiation
# (unhook[go.shape…]), so the brackets are stripped; a value-receiver
# method may appear as T.M or (*T).M.
#
# CI diffs the output against .github/unlinked.txt, the functions kept
# on purpose (interface markers, test seams, test references):
#
#	bash .github/unlinked.sh | diff .github/unlinked.txt -
#
# Run from anywhere in the repo; it takes about a minute.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for b in faultcov marchsim prtsim gfsynth faultvet benchjson; do
	go build -gcflags=all=-l -o "$out/$b" "./cmd/$b"
done
for e in examples/*/; do
	go build -gcflags=all=-l -o "$out/ex_$(basename "$e")" "./$e"
done
(cd bench && go build -gcflags=all=-l -o "$out/faultbench" ./faultbench)
for f in "$out"/*; do go tool nm "$f"; done |
	awk '$2 == "T" || $2 == "t" { $1 = $2 = ""; print substr($0, 3) }' |
	grep '^repro/internal/' | sed 's/\[.*\]//' | LC_ALL=C sort -u >"$out/linked"

# One line per declaration: its name and, for a value receiver, the
# pointer-receiver spelling, tab-separated.
find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path 'internal/analysis/*' |
	LC_ALL=C sort | xargs grep -H '^func ' | awk -F: '{
		pkg = "repro/" $1; sub(/\/[^\/]*$/, "", pkg); d = $0; sub(/^[^:]*:/, "", d)
		if (d ~ /^func \(/) {
			r = d; sub(/^func \(/, "", r); sub(/\).*/, "", r); n = split(r, w, " "); r = w[n]; sub(/\[.*/, "", r)
			m = d; sub(/^func \([^)]*\) /, "", m); sub(/[^A-Za-z0-9_].*/, "", m)
			if (r ~ /^\*/) print pkg ".(*" substr(r, 2) ")." m "\t"
			else print pkg "." r "." m "\t" pkg ".(*" r ")." m
		} else {
			f = d; sub(/^func /, "", f); sub(/[^A-Za-z0-9_].*/, "", f)
			if (f != "init" && f != "main") print pkg "." f "\t"
		}
	}' | awk -F'\t' 'NR == FNR { linked[$0] = 1; next }
		!($1 in linked) && !($2 != "" && $2 in linked) { print $1 }' "$out/linked" - |
	LC_ALL=C sort -u
