"""Run one chdarcy CLI command in this process and record its timeline.

    python3 child.py SRC RECORD TRACE -- <chdarcy arguments>

SRC is the directory that holds the `chdarcy` package, RECORD the JSON
file this script writes when the command returns, and TRACE is 1 to
wrap the package's public functions with span recorders (0 leaves the
package untouched apart from one timestamp on `dynamics.run`).

Times are `time.monotonic()` readings.  On Linux that clock is
system-wide, so the parent can subtract its own spawn time from them.
The record holds:

    import_s        seconds spent importing chdarcy.cli
    first_run       clock at the first entry into dynamics.run (or null)
    main_end        clock when cli.main returned
    exit_code       cli.main's return value
    spans           (TRACE=1 only) [name, parent index, start, end] with
                    perf_counter start and end, in call order

The wrappers are installed from outside: every cross-module call in
the package goes through a module attribute (`sp.`, `dyn.`, `md.`,
`dg.`, `cio.`, `cf.`) and calls inside a module go through its globals,
so replacing the attribute is seen by every caller.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("spectral", "model", "dynamics", "diagnostics", "experiments",
          "io", "config", "cli")

# Public methods that carry a layer's work; module-level functions are
# found by inspection.
METHODS = (
    ("model", "TumourModel", "effective"),
    ("diagnostics", "DiagnosticsCollector", "observe"),
    ("config", "RunConfig", "build_basis"),
    ("config", "RunConfig", "build_model"),
    ("config", "RunConfig", "build_stepper"),
    ("config", "RunConfig", "build_initial_state"),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, owner, attr, name):
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        setattr(owner, attr, traced)

    def install(self, package):
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self.wrap(module, attr, f"{layer}.{attr}")
        for layer, cls, attr in METHODS:
            self.wrap(getattr(getattr(package, layer), cls), attr,
                      f"{layer}.{attr}")


def main(argv):
    src, record_path, trace = argv[1], argv[2], argv[3] == "1"
    if argv[4] != "--":
        raise SystemExit("usage: child.py SRC RECORD TRACE -- ARGS...")
    sys.path.insert(0, src)

    start = time.monotonic()
    from chdarcy import cli
    import_s = time.monotonic() - start

    import chdarcy
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(chdarcy)

    first_run = []
    run = chdarcy.dynamics.run

    def timed_run(*args, **kwargs):
        if not first_run:
            first_run.append(time.monotonic())
        return run(*args, **kwargs)

    chdarcy.dynamics.run = timed_run
    code = cli.main(argv[5:])
    main_end = time.monotonic()

    record = {
        "import_s": import_s,
        "first_run": first_run[0] if first_run else None,
        "main_end": main_end,
        "exit_code": code,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(record_path, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
