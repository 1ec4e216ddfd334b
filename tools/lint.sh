#!/usr/bin/env sh
# Convenience wrapper: run repro-lint over the source tree from anywhere.
#
#   tools/lint.sh                 # lint src/repro with the repo config
#   tools/lint.sh --format json   # machine-readable report
#   tools/lint.sh tests/foo.py    # lint specific files
#
# All flags pass through to `python -m repro.lint`; see --help.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python -m repro.lint "$@"
