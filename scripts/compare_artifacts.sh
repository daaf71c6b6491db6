#!/usr/bin/env bash
# Check that two source trees of xmc produce the same artifacts.
#
# Runs the ten commands, gen-data through estimate-mi, on the tiny test
# config (TINY_YAML in CHANGE_TREE/tests/test_cli.py) with one BLAS thread,
# once with each tree's src/. Then it runs the ablation teacher:
# pretrain-vision, pretrain and probe under that config with
# vision.mode: random-frozen, on the same side's tiny dataset, into
# random-frozen/. Then it replays the benchmark's traffic: the
# setup and measured xmc commands of each workload in WORKLOADS of
# CHANGE_TREE/perfbench/run.py, under that workload's config overlay, at
# seed 7, each workload into its own output directory. Then it cmp's every
# artifact (CSV, checkpoint, dataset) and compares the manifests with each
# side's output directory replaced by a placeholder. Under each CSV that
# differs it prints the first ten differing lines of both sides (- parent,
# + change), numbered from 1 at the header, then the largest absolute and the
# largest relative difference over the numeric cells the two sides share,
# each with its line and column; under each manifest that differs, the first
# ten differing JSON paths with both values (<absent> where a side lacks
# one). Last comes one line that lists every test_accuracy and mean_accuracy
# cell that differs between the trees (file, line, column, both values), or
# says none did, so a declared rounding change shows at a glance whether any
# score moved.
# Exits 0 when all are equal, 1 when something differs or a command fails.
#
# Usage: scripts/compare_artifacts.sh PARENT_TREE CHANGE_TREE [WORK_DIR]
# WORK_DIR (default: a new temporary directory) receives the configs and the
# two output directories, parent/ and change/, each holding the tiny
# config's outputs, the ablation teacher's random-frozen/ and one
# subdirectory per workload.
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

# Both trees run the same configs, so any difference comes from the code.
python3 - "$change/tests/test_cli.py" "$work" <<'PY'
import ast
import sys
from pathlib import Path

for node in ast.parse(open(sys.argv[1]).read()).body:
    if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TINY_YAML" for t in node.targets):
        tiny = ast.literal_eval(node.value)
Path(sys.argv[2], "tiny.yaml").write_text(tiny)
Path(sys.argv[2], "random-frozen.yaml").write_text(
    tiny.replace("vision:\n", "vision:\n  mode: random-frozen\n", 1))
PY

# One line per workload command: the workload name, then the command's
# arguments, with @OUT@ where they name the directory the setup wrote to.
# The setup that is only `--help` writes nothing and is left out.
python3 - "$change/perfbench" "$work" > "$work/workloads.txt" <<'PY'
import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from run import WORKLOADS

for w in WORKLOADS.values():
    (Path(sys.argv[2]) / f"{w.name}.yaml").write_text(json.dumps(w.overlay))
    for tokens in (*w.setup, *w.measured):
        if not tokens[0].startswith("-"):
            print(w.name, *(t.format(setup="@OUT@") for t in tokens))
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
    for cmd in pretrain-vision pretrain probe; do
        if ! PYTHONPATH="$tree/src" python3 -m xmc.cli "$cmd" \
                --config "$work/random-frozen.yaml" --data "$work/$side/dataset.xmcd" \
                --out "$work/$side/random-frozen" > /dev/null; then
            echo "$side: xmc $cmd with the random-frozen teacher failed" >&2
            exit 1
        fi
    done
    while read -r -a tokens; do
        name=${tokens[0]} args=("${tokens[@]:1}")
        out="$work/$side/$name"
        if ! PYTHONPATH="$tree/src" python3 -m xmc.cli "${args[@]//@OUT@/$out}" \
                --config "$work/$name.yaml" --seed 7 --out "$out" > /dev/null; then
            echo "$side: xmc ${args[0]} of workload $name failed" >&2
            exit 1
        fi
    done < "$work/workloads.txt"
done

python3 - "$work/parent" "$work/change" <<'PY'
import filecmp
import json
import math
import sys
from itertools import zip_longest
from pathlib import Path


def leaves(node, path=""):
    """(path, value as JSON) of each leaf of a parsed JSON document."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from leaves(value, f"{path}[{json.dumps(key)}]")
    else:
        yield path, json.dumps(node)


def show(side, at, value):
    print(f"  {side} {at}: {value}")


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def largest_numeric_differences(lines):
    """The largest absolute and relative difference, |a - b| / max(|a|, |b|),
    over the cells that parse as numbers on both sides, each as (difference,
    line, column name); a NaN against a number counts as infinite."""
    header = lines[0][0].split(",") if lines[0] else []
    worst = {"absolute": (0.0, None, None), "relative": (0.0, None, None)}
    for i, (a, b) in enumerate(zip(*lines), 1):
        for col, (x, y) in enumerate(zip(a.split(","), b.split(","))):
            x, y = number(x), number(y)
            if x is None or y is None or x == y or (x != x and y != y):
                continue
            diff = abs(x - y)
            diff = math.inf if diff != diff else diff
            name = header[col] if col < len(header) else f"#{col + 1}"
            for kind, value in (("absolute", diff), ("relative", diff / max(abs(x), abs(y)))):
                if value > worst[kind][0]:
                    worst[kind] = (value, i, name)
    return worst


def accuracy_differences(name, lines):
    """"file:line column parent -> change" for each test_accuracy or
    mean_accuracy cell that differs, each column found by name on each side."""
    rows = [[line.split(",") for line in side] for side in lines]
    if not all(rows):
        return []

    def cell(row, at):
        return row[at] if row is not None and at is not None and at < len(row) else "<absent>"

    out = []
    for col in ("test_accuracy", "mean_accuracy"):
        at = [side[0].index(col) if col in side[0] else None for side in rows]
        if at == [None, None]:
            continue
        for i, (a, b) in enumerate(zip_longest(rows[0][1:], rows[1][1:]), 2):
            x, y = cell(a, at[0]), cell(b, at[1])
            if x != y:
                out.append(f"{name}:{i} {col} {x} -> {y}")
    return out


dirs = [Path(d) for d in sys.argv[1:]]
moved = []
names = [sorted(str(p.relative_to(d)) for p in d.rglob("*") if p.is_file())
         for d in dirs]
ok = names[0] == names[1]
if not ok:
    print(f"file sets differ: {sorted(set(names[0]) ^ set(names[1]))}")
for name in sorted(set(names[0]) & set(names[1])):
    if name.endswith(".manifest.json"):
        docs = [json.loads((d / name).read_text().replace(str(d), "<out>"))
                for d in dirs]
        same = docs[0] == docs[1]
    else:
        same = filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)
    print(f"{'same' if same else 'DIFFERENT'}  {name}")
    if not same and name.endswith(".csv"):
        lines = [(d / name).read_text().splitlines() for d in dirs]
        moved += accuracy_differences(name, lines)
        pairs = [(i, a, b) for i, (a, b) in enumerate(zip_longest(*lines), 1) if a != b]
        for i, a, b in pairs[:10]:
            show("-", i, "<no line>" if a is None else a)
            show("+", i, "<no line>" if b is None else b)
        for kind, (value, i, col) in largest_numeric_differences(lines).items():
            print(f"  largest {kind} difference: "
                  + (f"{value:.3g} at line {i}, column {col}" if i else "none"))
    if not same and name.endswith(".manifest.json"):
        flat = [dict(leaves(doc)) for doc in docs]
        paths = sorted(p for p in flat[0].keys() | flat[1].keys()
                       if flat[0].get(p, "<absent>") != flat[1].get(p, "<absent>"))
        for at in paths[:10]:
            for side, values in zip("-+", flat):
                show(side, at, values.get(at, "<absent>"))
    ok = ok and same
print("accuracy cells that differ: " + ("; ".join(moved) if moved else "none"))
sys.exit(0 if ok else 1)
PY
