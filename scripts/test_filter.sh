#!/usr/bin/env bash
# `cargo test <args> -- <filter>` passes silently when a rename makes the
# filter match nothing. Run it, but fail first if the filter selects no test.
#   scripts/test_filter.sh <filter> <cargo test args…>
set -euo pipefail
filter=$1; shift
listed=$(cargo test "$@" -- "$filter" --list)
grep -q ': test$' <<<"$listed" \
    || { echo "test_filter: '$filter' matches no test in: cargo test $*" >&2; exit 1; }
exec cargo test "$@" -- "$filter"
