#!/usr/bin/env bash
# Check that two source trees of xmc produce the same artifacts.
#
# Runs the ten commands, gen-data through estimate-mi, on the tiny test
# config (TINY_YAML in CHANGE_TREE/tests/test_cli.py) with one BLAS thread,
# once with each tree's src/. Then it cmp's every artifact (CSV, checkpoint,
# dataset, splits sidecar) and compares the manifests with each run's output
# directory replaced by a placeholder. Exits 0 when all are equal, 1 when
# something differs or a command fails.
#
# Usage: scripts/compare_artifacts.sh PARENT_TREE CHANGE_TREE [WORK_DIR]
# WORK_DIR (default: a new temporary directory) receives the config and the
# two output directories, parent/ and change/.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT_TREE CHANGE_TREE [WORK_DIR]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=${3:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
unset XMC_JOBS

# Both trees run the same config, so any difference comes from the code.
python3 - "$change/tests/test_cli.py" > "$work/tiny.yaml" <<'PY'
import ast
import sys

for node in ast.parse(open(sys.argv[1]).read()).body:
    if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TINY_YAML" for t in node.targets):
        print(ast.literal_eval(node.value), end="")
PY

commands="gen-data pretrain-vision pretrain probe finetune baseline project
          sweep-k sweep-labels estimate-mi"
for side in parent change; do
    tree=${!side}
    rm -rf "$work/$side"
    for cmd in $commands; do
        if ! PYTHONPATH="$tree/src" python3 -m xmc.cli "$cmd" \
                --config "$work/tiny.yaml" --out "$work/$side" > /dev/null; then
            echo "$side: xmc $cmd failed" >&2
            exit 1
        fi
    done
done

python3 - "$work/parent" "$work/change" <<'PY'
import filecmp
import json
import sys
from pathlib import Path

dirs = [Path(d) for d in sys.argv[1:]]
names = [sorted(p.name for p in d.iterdir()) for d in dirs]
ok = names[0] == names[1]
if not ok:
    print(f"file sets differ: {sorted(set(names[0]) ^ set(names[1]))}")
for name in sorted(set(names[0]) & set(names[1])):
    if name.endswith(".manifest.json"):
        a, b = (json.loads((d / name).read_text().replace(str(d), "<out>"))
                for d in dirs)
        same = a == b
    else:
        same = filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)
    print(f"{'same' if same else 'DIFFERENT'}  {name}")
    ok = ok and same
sys.exit(0 if ok else 1)
PY
