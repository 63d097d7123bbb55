"""Per-layer tracer that wraps icfpie's functions from outside the package.

Each target is replaced, at the module attribute where its caller looks it
up, by a wrapper that times the call; `restore()` puts every original back.
The package itself is never edited.

Three kinds of target:

* spans: coarse calls (a Monte-Carlo batch, one seed, `run_once`,
  `dicf_step`, ...). Each is kept in memory as
  (id, parent id, seed id, name, start, end) and written out at the end.
* accumulators: per-node calls (`predict`, `to_state_estimate`, ...),
  about a million per sweep seed. Only their time and call count are kept,
  so trace memory stays bounded.
* counters: things that are counted, not timed (ledger rows, numerics
  events, partial-cycle consensus calls, row updates).

Every timed call knows how much of its time its traced callees took, so
each layer gets a self time; the self times of all layers add up to the
wall time of the traced calls. The counting hook around `run_consensus`
is timed too and booked to `trace.hooks`, not to the caller's self time.
A target that is missing from the package makes `install()` raise.

Worker processes of the harness's process pool are forked from a parent
that already holds the wrappers. A seed that runs in a worker ships its
spans and accumulators back inside its result dict, and the wrapper around
`harness._execute` merges them before the harness reads the results.
"""

import contextlib
import functools
import inspect
import json
import os
import time
import warnings

SEED_KEY = "_bench_trace"


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.acc = {}          # name -> [inclusive s, self s, calls]
        self.counts = {}       # name -> [count]
        self.spans = []        # (id, parent, seed, name, t0, t1)
        self.stack = []        # open calls: [callee s, span id or None]
        self.seed = None
        self.next_id = 1
        self.installed = []    # (owner, attribute, original)
        self.wrapped = 0       # targets wrapped by the last install()

    # -- bookkeeping -----------------------------------------------------

    def _acc(self, name):
        return self.acc.setdefault(name, [0.0, 0.0, 0])

    def counter(self, name):
        return self.counts.setdefault(name, [0])

    def clear(self):
        """Zero every record in place; wrappers keep their references."""
        for a in self.acc.values():
            a[0] = a[1] = 0.0
            a[2] = 0
        for c in self.counts.values():
            c[0] = 0
        self.spans = []

    def export(self) -> dict:
        return {"acc": {k: list(v) for k, v in self.acc.items()},
                "counts": {k: v[0] for k, v in self.counts.items()},
                "spans": list(self.spans)}

    def merge(self, part: dict):
        for name, (incl, self_s, calls) in part["acc"].items():
            a = self._acc(name)
            a[0] += incl
            a[1] += self_s
            a[2] += calls
        for name, n in part["counts"].items():
            self.counter(name)[0] += n
        self.spans.extend(tuple(s) for s in part["spans"])

    # -- wrappers --------------------------------------------------------

    def _timed(self, fn, name, span, hook=None):
        """Time `fn`. `hook(args, kwargs)`, if given, runs before the call
        and returns a function to run after it; both are booked to
        `trace.hooks`."""
        tracer = self
        acc = self._acc(name)
        hooks = self._acc("trace.hooks")

        def book_hook(dt):
            hooks[0] += dt
            hooks[1] += dt
            hooks[2] += 1
            if tracer.stack:
                tracer.stack[-1][0] += dt

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if hook is not None:
                h0 = time.perf_counter()
                after = hook(args, kwargs)
                book_hook(time.perf_counter() - h0)
            stack = tracer.stack
            frame = [0.0, None]
            if span:
                frame[1] = tracer.next_id
                tracer.next_id += 1
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                acc[0] += dt
                acc[1] += dt - frame[0]
                acc[2] += 1
                if span:
                    tracer.spans.append((frame[1], parent, tracer.seed, name, t0, t1))
                if after is not None:
                    after()
                    book_hook(time.perf_counter() - t1)
        return wrapper

    def _seed_span(self, fn, name):
        """Span for one Monte-Carlo seed, whose argument tuple ends with the
        seed; in a pool worker it ships the worker's records back inside
        the result dict."""
        tracer = self
        inner = self._timed(fn, name, span=True)

        @functools.wraps(fn)
        def wrapper(args):
            in_worker = os.getpid() != tracer.pid
            if in_worker:
                tracer.clear()
                # span ids stay unique across processes
                tracer.next_id = max(tracer.next_id, os.getpid() << 32)
            tracer.seed = int(args[-1])
            try:
                result = inner(args)
            finally:
                tracer.seed = None
            if in_worker and isinstance(result, dict):
                result[SEED_KEY] = tracer.export()
            return result
        return wrapper

    def _execute_span(self, fn, name):
        """Span around the harness's executor; merges worker records."""
        tracer = self
        inner = self._timed(fn, name, span=True)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results = inner(*args, **kwargs)
            for r in results:
                if isinstance(r, dict) and SEED_KEY in r:
                    tracer.merge(r.pop(SEED_KEY))
            return results
        return wrapper

    def _events(self, fn, prefix):
        """Count NumericsLog.record(kind, ...) calls by kind."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(log, kind, *args, **kwargs):
            tracer.counter(f"{prefix}.{kind}")[0] += 1
            return fn(log, kind, *args, **kwargs)
        return wrapper

    # -- install / restore -----------------------------------------------

    def _replace(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self.installed.append((owner, attr, original))
        self.wrapped = len(self.installed)

    def install(self):
        """Wrap every traced call site of the icfpie package."""
        from icfpie import consensus, dicf, harness, info_filter

        span, acc = True, False
        targets = [
            (harness, "run_monte_carlo", "harness.batch", span),
            (harness, "sweep_consensus_steps", "harness.batch", span),
            (harness, "emit_outputs", "harness.emit_outputs", span),
            (harness, "build_scenario", "harness.build_scenario", span),
            (harness, "run_once", "harness.run_once", span),
            (harness, "dicf_step", "dicf.dicf_step", span),
            (harness, "ckf_step", "dicf.ckf_step", span),
            (harness, "random_geometric", "network.random_geometric", acc),
            (harness, "to_state_estimate", "info_filter.to_state_estimate", acc),
            (harness, "information_state", "info_filter.information_state", acc),
            (consensus, "run_masked_consensus", "consensus.kernel", acc),
            (dicf, "init_consensus", "consensus.init_consensus", acc),
            (dicf, "predict", "info_filter.predict", acc),
            (info_filter, "inv_spd", "info_filter.inv_spd", acc),
            (info_filter, "ensure_invertible", "info_filter.ensure_invertible", acc),
            (dicf, "to_state_estimate", "info_filter.to_state_estimate", acc),
            (dicf, "information_state", "info_filter.information_state", acc),
            (info_filter, "information_state", "info_filter.information_state", acc),
            (dicf, "local_correction_terms", "info_filter.local_correction_terms", acc),
            (info_filter, "local_correction_terms", "info_filter.local_correction_terms", acc),
            (dicf, "centralized_correct", "info_filter.centralized_correct", acc),
            (dicf, "linearize", "models.linearize", acc),
        ]
        for owner, attr, name, is_span in targets:
            self._replace(owner, attr, lambda f, n=name, s=is_span: self._timed(f, n, s))
        self._replace(harness, "_execute", lambda f: self._execute_span(f, "harness.execute"))
        self._replace(dicf, "run_consensus", lambda f: self._timed(
            f, "consensus.run_consensus", False, self._consensus_counts(f)))
        for attr in ("_mc_single_run", "_sweep_single_run"):
            self._replace(harness, attr, lambda f: self._seed_span(f, "harness.seed"))
        self._replace(info_filter.NumericsLog, "record",
                      lambda f: self._events(f, "info_filter.events"))

    def _consensus_counts(self, run_consensus):
        """Hook for `run_consensus`: counts its row updates (sum over steps
        of N * |rows selected at step l|) and the rows it appends to the
        bandwidth ledger."""
        signature = inspect.signature(run_consensus)
        row_updates = self.counter("consensus.row_updates")
        ledger_rows = self.counter("network.ledger_rows")

        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            state, schedule, steps = bound["state"], bound["schedule"], bound["L"]
            row_updates[0] += state.B.shape[0] * sum(schedule.rows_at(l).size
                                                     for l in range(steps))
            ledger = bound.get("ledger")
            if ledger is None:
                return None
            before = len(ledger.rows)

            def after():
                ledger_rows[0] += len(ledger.rows) - before
            return after
        return hook

    def restore(self) -> list:
        """Put every original back; returns the targets still not restored."""
        installed, self.installed = self.installed, []
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in installed
                if getattr(o, a) is not orig]

    @contextlib.contextmanager
    def counting_warnings(self, category, name):
        """Count every `category` warning as `name` instead of printing it."""
        cell = self.counter(name)
        with warnings.catch_warnings():
            warnings.simplefilter("always", category)
            shown = warnings.showwarning

            def showwarning(message, cat, *args, **kwargs):
                if issubclass(cat, category):
                    cell[0] += 1
                else:
                    shown(message, cat, *args, **kwargs)
            warnings.showwarning = showwarning
            yield

    # -- reporting -------------------------------------------------------

    def self_total(self) -> float:
        return sum(a[1] for a in self.acc.values())

    def write(self, path, meta: dict):
        with open(path, "w") as fh:
            json.dump({**meta,
                       "span_fields": ["id", "parent", "seed", "name", "t0", "t1"],
                       "spans": self.spans,
                       "accumulators": {k: {"s": v[0], "self_s": v[1], "calls": v[2]}
                                        for k, v in sorted(self.acc.items())},
                       "counts": {k: v[0] for k, v in sorted(self.counts.items())}},
                      fh)
            fh.write("\n")
