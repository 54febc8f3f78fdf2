#!/usr/bin/env bash
# Runs the whole benchmark suite: every workload in its own process,
# untraced and then traced, under the fixed run environment; writes one
# results JSON and exits nonzero on any correctness failure.
#
#   snpbench/run.sh [--seed S] [--out FILE] [--repeat K] [--seconds N]
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" --suite "$@"
