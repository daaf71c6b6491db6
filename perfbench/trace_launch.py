"""Run one xmc CLI command with every layer boundary traced.

Usage: python perfbench/trace_launch.py SPAN_DIR RUN_ID XMC_ARGS...

Wraps the public functions of the traced modules at every module that binds
them (``from .x import y`` creates a separate global per importing module),
the encoder and queue methods on their classes, and the CLI's command table,
then calls ``xmc.cli.main``. Spans go to SPAN_DIR, one file per process;
forked pool workers inherit the wrappers and write their own files. Nothing
in ``src/`` is changed: each layer is timed from outside, at its calls.
"""

from __future__ import annotations

import importlib
import os
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402

TRACED_MODULES = ("autodiff", "models", "contrastive", "mi", "evaluation",
                  "datagen", "runio", "cli")


# Span name -> size(args, kwargs, result) in bytes.
SIZES = {
    # momentum SGD reads p, g, v and writes v, p: 5 float64 passes per element
    "models.sgd_step": lambda a, k, out: 40 * sum(p.data.size for p in a[0]),
    "contrastive.queue.snapshot": lambda a, k, out: out.nbytes,
    "datagen.save_dataset": lambda a, k, out: os.path.getsize(a[0]),
    "datagen.load_dataset": lambda a, k, out: os.path.getsize(a[0]),
    "models.save_checkpoint": lambda a, k, out: os.path.getsize(a[0]),
    "models.load_checkpoint": lambda a, k, out: os.path.getsize(a[0]),
    "runio.sha256_file": lambda a, k, out: os.path.getsize(a[0]),
}


def install(tracer: Tracer) -> None:
    """Replace every binding of the traced functions with a span wrapper."""
    modules = {name: importlib.import_module(f"xmc.{name}") for name in TRACED_MODULES}
    cli = modules["cli"]
    command_of = {fn: name for name, fn in cli.COMMANDS.items()}

    wrappers: dict[types.FunctionType, types.FunctionType] = {}

    def wrapper_for(fn: types.FunctionType) -> types.FunctionType:
        if fn not in wrappers:
            if fn in command_of:
                name = f"cli.{command_of[fn]}"
            else:
                name = f"{fn.__module__.removeprefix('xmc.')}.{fn.__name__}"
            wrappers[fn] = tracer.wrap(name, fn, SIZES.get(name))
        return wrappers[fn]

    owners = {f"xmc.{name}" for name in TRACED_MODULES}
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if (isinstance(obj, types.FunctionType) and obj.__module__ in owners
                    and not obj.__name__.startswith("_")):
                setattr(module, attr, wrapper_for(obj))
    for name, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = wrapper_for(fn)

    methods = ((modules["contrastive"].NegativeQueue, "enqueue", "contrastive.queue.enqueue"),
               (modules["contrastive"].NegativeQueue, "snapshot", "contrastive.queue.snapshot"),
               (modules["models"].EncoderModel, "forward", "models.forward"),
               (modules["models"].EncoderModel, "forward_numpy", "models.forward_numpy"))
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), SIZES.get(name)))


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    span_dir, run_id, xmc_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(span_dir, run_id)
    install(tracer)
    from xmc import cli
    try:
        return cli.main(xmc_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
