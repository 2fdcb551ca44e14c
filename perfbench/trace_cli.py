"""Run the spinchaos CLI with a span around each call into its modules.

    python3 perfbench/trace_cli.py SPANS.json MODE [--config FILE] [--set KEY=VALUE ...]

Every public function of ``quantum``, ``liouville``, ``classical``,
``correspondence`` and ``csvio`` (its ``__all__`` where it has one), and
``cli.run``, is
replaced by a wrapper that records one span: layer, function, start, end,
self time (the duration less that of its child spans), the span that called
it, and the work the call was asked to do. Spans stay in memory and are
written to SPANS.json when the CLI returns. ``src/`` must be on PYTHONPATH.

Only module-level names are wrapped, so two calls stay invisible from here:
``cli`` imports ``write_csv`` by name (the ``cli.write_csv`` name is wrapped
instead), and ``liouville`` calls the classical map through the private
``_map_cols``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time

import numpy as np

from spinchaos import classical, cli, correspondence, csvio, liouville, quantum

LAYERS = {
    "quantum": quantum,
    "liouville": liouville,
    "classical": classical,
    "correspondence": correspondence,
    "csvio": csvio,
}


def _work(name: str, args: inspect.BoundArguments, keep: list) -> dict:
    """The size of the work one call was asked to do, read from its arguments.

    ``key`` names the computation, so that repeats of one computation can be
    told apart from distinct ones; the objects it is built from are kept
    alive in ``keep`` so that their ids are not reused.
    """
    a = args.arguments
    if name in ("evolve", "evolve_series"):
        keep.append((a["state"], a["f"]))
        kicks = a["n"] if name == "evolve" else a["n_kicks"]
        return {"kicks": kicks, "key": f"{id(a['state'])}:{id(a['f'])}"}
    if name == "ensemble_evolve":
        return {"traj_kicks": a["ens"].n_traj * a["n_kicks"]}
    if name == "sample_polarized":
        return {"samples": a["n"]}
    if name == "lyapunov_exponent":
        x0 = np.atleast_2d(np.asarray(a["x0"], dtype=float))
        key = f"{hashlib.sha1(x0.tobytes()).hexdigest()}:{a['p']!r}:{a['renorm_every']}"
        return {"steps": a["n_steps"] * x0.shape[0], "batch": x0.shape[0], "key": key}
    if name == "write_csv":
        columns = list(a["columns"].values())
        return {"fields": len(columns) * len(columns[0])}
    return {}


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._keep: list = []

    def wrap(self, layer: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "layer": layer,
                "name": fn.__name__,
                "work": _work(fn.__name__, bound, self._keep),
                "child_s": 0.0,
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                duration = span["end"] - span["start"]
                span["self_s"] = duration - span.pop("child_s")
                if self._stack:
                    self._stack[-1]["child_s"] += duration
                if fn.__name__ == "write_csv" and os.path.exists(bound.arguments["path"]):
                    span["work"]["bytes"] = os.path.getsize(bound.arguments["path"])

        return traced

    def install(self) -> None:
        for layer, module in LAYERS.items():
            for name in getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")]):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    setattr(module, name, self.wrap(layer, fn))
        cli.write_csv = self.wrap("csvio", cli.write_csv)
        cli.run = self.wrap("cli", cli.run)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
