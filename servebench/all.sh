#!/usr/bin/env bash
# Runs every workload of the serving benchmark in turn, one process each,
# with the given arguments, e.g.
#
#   bash servebench/all.sh --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
for w in dense sparse skewed-ingest; do
	bash "$here/run.sh" --workload "$w" "$@"
done
