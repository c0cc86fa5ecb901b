#!/usr/bin/env bash
# lookahead-mutation: the mutation control for the lookahead equivalence
# tests (internal/sim/lookahead_test.go).
#
# Copies the tree into a temporary directory, breaks the settle rule of
# DESIGN.md §19 in one way at a time, and runs the Lookahead tests against
# each broken copy. Every mutant must make at least one test fail; a mutant
# that passes means the tests no longer pin that part of the rule. The
# checkout itself is never modified.
#
#   tie      drop the [self.id < actor.id] term from settle
#   charge   skip the settle in charge (slave cost shifts the whole run)
#   discard  keep a remote abort's unexecuted run-ahead steps
set -euo pipefail

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# mutate NAME FILE OLD NEW: copy the tree, replace the exact line OLD with NEW
# in FILE, and require the Lookahead tests to fail on the copy.
mutate() {
	local name=$1 file=$2 old=$3 new=$4 dir="$TMP/$1"
	mkdir -p "$dir"
	tar -cf - --exclude=./.git --exclude=./.bench_build . | tar -xf - -C "$dir"
	OLD="$old" NEW="$new" perl -0pi -e 's/\Q$ENV{OLD}\E/$ENV{NEW}/ or die "pattern not found\n"' "$dir/$file"
	if (cd "$dir" && go test -count=1 -run 'Lookahead' ./internal/sim > "$TMP/$name.log" 2>&1); then
		echo "lookahead-mutation: mutant '$name' SURVIVED: no test failed" >&2
		return 1
	fi
	echo "lookahead-mutation: mutant '$name' killed ($(grep -c -- '--- FAIL' "$TMP/$name.log") failing tests)"
}

mutate tie internal/sim/machine.go \
	'	if c.id < m.nowID {
		s++
	}' ''
mutate charge internal/sim/machine.go \
	'	m.settle(c)
	c.cycle += n' '	c.cycle += n'
mutate discard internal/sim/machine.go \
	'		c.cycle -= c.runSteps
		m.res.Steps -= c.runSteps' ''
echo "lookahead-mutation: every mutant killed"
