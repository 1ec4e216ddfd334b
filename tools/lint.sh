#!/usr/bin/env sh
# Run repro-lint (`python -m repro.lint`) from anywhere in the checkout.
#
#   tools/lint.sh                  # lint src/repro
#   tools/lint.sh src/repro tools  # what CI lints
#   tools/lint.sh path/to/file.py  # lint specific files
#   tools/lint.sh --list-rules     # rule ids + the hazard each guards
#
# Every rule runs on every file (tests/lint_fixtures is skipped), and any
# finding exits 1; waive one only with `# repro-lint: disable=RULE -- why`
# on its line.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python -m repro.lint "$@"
