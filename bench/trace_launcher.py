"""Run one grasspack CLI command with a timing span around every public call.

    python bench/trace_launcher.py SPANS.json ARGS...

Every public function of every grasspack module, and every public method or
``__post_init__`` of the classes they define, is replaced by a wrapper in
each module namespace that holds it, so calls through imported names are
seen too.  Spans are aggregated in memory per name (calls, total time, self
time = total minus the time of spans opened inside it) and written to
SPANS.json when the command returns.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

# Counters read from return values, where the work done is not a call count.
OBSERVE = {
    "verify.check_equiangular": lambda args, report: {"verify.pairs": report.pair_count},
    "packing.solve": lambda args, result: {
        "packing.iterations": args[0].restarts * args[0].max_iters,
        "packing.improvements": len(result.history) - 1,
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._child = [0.0]

    def wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        clock = time.perf_counter
        child = self._child
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if observe is not None:
                for key, value in observe(args, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__post_init__" or not meth.startswith("_")):
                            setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def dump(self, path: str) -> None:
        doc = {
            "spans": {name: dict(zip(("calls", "total_s", "self_s"), s)) for name, s in self.spans.items() if s[0]},
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv: list[str]) -> int:
    import grasspack
    import grasspack.cli

    tracer = Tracer()
    tracer.install(grasspack)
    try:
        return grasspack.cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
