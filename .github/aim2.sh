#!/bin/sh
# ROADMAP aim 2's two numbers, as a markdown fragment on stdout (CI appends
# it to the job summary; run it from the repository root):
#   - non-blank, non-comment, non-test Go lines outside bench/, per package
#     directory and in total;
#   - exported identifiers of internal/ts, internal/network and
#     internal/visited: package-level names as `go doc -short` lists them,
#     plus the exported functions, methods and interface methods that
#     `go doc -short -all` prints.
set -eu

echo '### Aim 2: code size'
echo
echo '| package | code lines |'
echo '|---|---:|'
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' | sort |
	while read -r f; do
		awk -v dir="$(dirname "$f")" '
			{ line = $0 }
			inblock { if (match(line, /\*\//)) { line = substr(line, RSTART + 2); inblock = 0 } else next }
			{ sub(/^[ \t]+/, "", line) }
			line ~ /^\/\*/ { if (line !~ /\*\//) inblock = 1; next }
			line == "" || line ~ /^\/\// { next }
			{ n++ }
			END { print dir, n + 0 }' "$f"
	done |
	awk '{ per[$1] += $2; total += $2 }
		END { for (d in per) print "| `" d "` | " per[d] " |"; print "| **total** | **" total "** |" }' |
	sort

echo
echo '### Aim 2: exported surface'
echo
echo '| package | package-level names | functions, methods, interface methods |'
echo '|---|---:|---:|'
for p in ts network visited; do
	names=$(go doc -short "./internal/$p" | wc -l)
	funcs=$(go doc -short -all "./internal/$p" | grep -cE '^(func |	[A-Z][A-Za-z0-9]*\()')
	echo "| \`internal/$p\` | $names | $funcs |"
done
