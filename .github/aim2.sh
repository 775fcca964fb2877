#!/bin/sh
# ROADMAP aim 2's two numbers, as a markdown fragment on stdout (CI appends
# it to the job summary; run it from the repository root):
#   - non-blank, non-comment, non-test Go lines outside bench/, per package
#     directory and in total — and, when the commit named by $1 (default
#     HEAD~1) is in the clone, the same count there and the difference, which
#     is the "before/after" line a PR text quotes;
#   - exported identifiers of internal/ts, internal/msi,
#     internal/visited, internal/mc and internal/core: package-level names
#     as `go doc -short` lists them, plus the exported functions, methods
#     and interface methods that `go doc -short -all` prints.
set -eu

base=${1:-HEAD~1}

# code_lines prints "<dir> <n>" for the Go source on stdin, named $1.
code_lines() {
	awk -v dir="$(dirname "$1")" '
		{ line = $0 }
		inblock { if (match(line, /\*\//)) { line = substr(line, RSTART + 2); inblock = 0 } else next }
		{ sub(/^[ \t]+/, "", line) }
		line ~ /^\/\*/ { if (line !~ /\*\//) inblock = 1; next }
		line == "" || line ~ /^\/\// { next }
		{ n++ }
		END { print dir, n + 0 }'
}

# counted filters a list of paths down to the files aim 2 counts.
counted() { grep '\.go$' | grep -v '_test\.go$' | grep -v '^\./bench/' | sort; }

echo '### Aim 2: code size'
echo
echo '| package | code lines |'
echo '|---|---:|'
find . -name '*.go' ! -path './.git/*' | counted |
	while read -r f; do code_lines "$f" <"$f"; done |
	awk '{ per[$1] += $2; total += $2 }
		END { for (d in per) print "| `" d "` | " per[d] " |"; print "| **total** | **" total "** |" }' |
	sort >/tmp/aim2-now.$$
cat /tmp/aim2-now.$$
now=$(sed -n 's/^| \*\*total\*\* | \*\*\([0-9]*\)\*\* |$/\1/p' /tmp/aim2-now.$$)
rm -f /tmp/aim2-now.$$

if git rev-parse --verify -q "$base^{commit}" >/dev/null 2>&1; then
	before=$(git ls-tree -r --name-only "$base" | sed 's|^|./|' | counted |
		while read -r f; do git show "$base:${f#./}" | code_lines "$f"; done |
		awk '{ total += $2 } END { print total + 0 }')
	echo
	echo "Non-test lines outside \`bench/\`: $before at \`$(git rev-parse --short "$base")\` → $now here ($((now - before)))."
fi

echo
echo '### Aim 2: exported surface'
echo
echo '| package | package-level names | functions, methods, interface methods |'
echo '|---|---:|---:|'
for p in ts msi visited mc core; do
	names=$(go doc -short "./internal/$p" | wc -l)
	funcs=$(go doc -short -all "./internal/$p" | grep -cE '^(func |	[A-Z][A-Za-z0-9]*\()')
	echo "| \`internal/$p\` | $names | $funcs |"
done
