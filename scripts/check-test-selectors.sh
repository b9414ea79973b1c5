#!/usr/bin/env bash
# check-test-selectors.sh fails when a -run, -bench or -fuzz selector in the
# CI workflow or the Makefile names no test. go test runs nothing, and
# passes, for a selector that matches nothing, so a renamed or merged test
# silently drops out of the step that was meant to run it.
#
# For every `go test` (or `$(GO) test`) line carrying a selector, comment
# lines aside, each top-level alternative of the selector's regexp must
# match at least one name that `go test -list` prints for that line's
# packages: a Test, Example or Fuzz function for -run, a Benchmark for
# -bench, a Fuzz function for -fuzz. Selectors that deliberately match nothing (NONE, ^$,
# xxx) are skipped. Run from anywhere: ./scripts/check-test-selectors.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
checked=0
while IFS= read -r line; do
	# The line's package arguments: . and ./path tokens.
	pkgs=$({ grep -oE '(^|[[:space:]])\.(/[^[:space:]]*)?' <<<"$line" || true; } | tr -d ' \t' | tr '\n' ' ')
	if [ -z "$pkgs" ]; then
		echo "no packages in: $line" >&2
		status=1
		continue
	fi
	for flag in run bench fuzz; do
		sel=$(sed -nE "s/.*-$flag[= ]('([^']*)'|([^[:space:]']+)).*/\2\3/p" <<<"$line")
		case "$sel" in
		'' | NONE | '^$' | xxx) continue ;;
		esac
		case $flag in
		run) kinds='^(Test|Example|Fuzz)' ;;
		bench) kinds='^Benchmark' ;;
		fuzz) kinds='^Fuzz' ;;
		esac
		IFS='|' read -ra alts <<<"$sel"
		for alt in "${alts[@]}"; do
			checked=$((checked + 1))
			# shellcheck disable=SC2086 # pkgs is a word list on purpose
			listed=$(go test -list "$alt" $pkgs 2>&1 || true)
			if ! grep -qE "$kinds" <<<"$listed"; then
				echo "-$flag alternative '$alt' matches nothing in $pkgs: $line" >&2
				status=1
			fi
		done
	done
done < <(grep -hE '(go|\$\(GO\)) test .*-(run|bench|fuzz)[= ]' .github/workflows/ci.yml Makefile | grep -vE '^[[:space:]]*#')

if [ "$status" -eq 0 ]; then
	echo "test selectors: all $checked alternatives name a test"
fi
exit "$status"
