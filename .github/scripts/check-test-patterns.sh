#!/usr/bin/env bash
# Fails when a `go test -run` or `-fuzz` pattern in the CI workflow selects
# nothing: `go test -run X` passes silently when no test matches X. Each
# pattern is split on `|` and every alternative must be listed by
# `go test -list` in at least one of the packages its command names.
# `-run '^$'` (run no tests) is skipped. Run from the repository root:
#
#	bash .github/scripts/check-test-patterns.sh
set -euo pipefail -o noglob

workflow=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r cmd; do
	pkgs=
	for word in $cmd; do
		[[ $word == . || $word == ./* ]] && pkgs+="$word "
	done
	for flag in run fuzz; do
		pat=$(sed -nE "s/.*-$flag[ =]'([^']*)'.*/\1/p; t; s/.*-$flag[ =]([^' ][^ ]*).*/\1/p" <<<"$cmd")
		[[ -z $pat || $pat == '^$' ]] && continue
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			# shellcheck disable=SC2086 # pkgs is a word list
			listed=$(go test -list "$alt" $pkgs </dev/null)
			if ! grep -qvE '^(ok|\?|FAIL)[[:space:]]' <<<"$listed"; then
				echo "-$flag alternative '$alt' matches no test in $pkgs" >&2
				status=1
			fi
		done
	done
# Join continued lines, keep the `go test` commands that select by pattern.
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$workflow" | grep -E 'go test .*-(run|fuzz)[ =]')
exit $status
