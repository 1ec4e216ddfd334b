#!/usr/bin/env bash
# CI chaos smoke for the campaign service's supervision layer.
#
# Runs the seeded chaos scenario (`tools/chaos.py`)
# with a pinned seed: boots a real server under the ci-chaos fault plan
# (worker hangs, worker SIGKILLs, torn ledger lines, dropped watch
# streams), SIGKILLs the whole server session mid-run, reboots with
# --resume, and asserts the supervision invariants — no job lost, no
# job double-completed, artifacts byte-identical to undisturbed direct
# runs, the ledger still replayable, and repeat offenders poisoned at
# the kill budget.  A second phase, with no fault plan, checks that a
# full queue rejects and that every done job's result can be fetched.
# The scenario's wall time is then gated against a 60 s budget so
# supervision never silently regresses into a minutes-long CI stage.
#
# Usage: tools/chaos_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}$PWD/src"

SEED="${CHAOS_SEED:-42}"
WORK="${1:-$(mktemp -d)}"

echo "==> running seeded chaos scenario (seed $SEED, workdir $WORK)"
python tools/chaos.py --seed "$SEED" --workdir "$WORK"

echo "==> gating wall time against the chaos budget"
python - "$WORK/chaos_report.json" <<'EOF'
import json
import sys

report = json.load(open(sys.argv[1]))
budget_s = 60.0
wall_s = report["wall_s"]
print(f"chaos wall time: {wall_s:.1f}s (budget: {budget_s:.0f}s)")
if wall_s > budget_s:
    sys.exit(f"FAIL: chaos scenario exceeded its {budget_s:.0f}s budget")
EOF
echo "chaos-smoke: OK"
