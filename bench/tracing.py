"""Spans at the fibersdc layer boundaries, recorded from outside the package.

`instrument` replaces public functions with recording wrappers at the module
attribute each caller looks them up through: `fibersdc.noise.evolve_bsm` is
what `sample_detection` calls, `fibersdc.interferometer.evolve_bsm` what
`verdict_distribution` calls, `fibersdc.cli.run_session` what the CLI calls.
No file of the package changes.  Each span records its name, start, end and
parent; spans stay in memory and are written out once, when the run ends.
`reduce_spans` turns a written trace into calls, inclusive and self time per
span name, where self time is a span's duration minus the time its children
cover (children of one span never overlap: the package is single-threaded).
"""

from __future__ import annotations

import json
import os
import types
from array import array
from time import perf_counter

LAYERS = ("states", "interferometer", "noise", "capacity", "protocol", "imagecodec", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, span_name: str, observe=None):
        """Return `fn` wrapped in a span; `observe(args, kwargs, result)`
        runs after the span closes, so its cost lands on the caller."""
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, extra: dict) -> None:
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "spans": len(self.name),
            "names": self.names,
            "counts": self.counts,
            "samples": self.samples,
            **extra,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def instrument(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries; attributes a refactor removed
    are skipped, so their calls read as zero."""
    import fibersdc.capacity as capacity
    import fibersdc.cli as cli
    import fibersdc.interferometer as interferometer
    import fibersdc.noise as noise
    import fibersdc.protocol as protocol
    import fibersdc.states as states

    def at(owner, attr, span_name, observe=None):
        fn = getattr(owner, attr, None)
        if callable(fn):
            setattr(owner, attr, tracer.wrap(fn, span_name, observe))

    def on_events(args, kwargs, result):
        tracer.count("noise.events", len(result))

    def on_detection(args, kwargs, result):
        if result[1] is None:
            tracer.count("noise.ambiguous")

    def on_file(key):
        def observe(args, kwargs, result):
            tracer.count(key, os.path.getsize(args[0]))

        return observe

    def on_capacity(args, kwargs, result):
        res = result[0] if isinstance(result, tuple) else result
        tracer.samples.setdefault("capacity.ba_iterations", []).append(res.iterations)
        if not res.converged:
            tracer.count("capacity.nonconverged")

    def on_bootstrap(args, kwargs, result):
        resamples = kwargs.get("resamples", args[1] if len(args) > 1 else 1000)
        tracer.count("capacity.resamples", resamples)

    def on_encode(args, kwargs, result):
        tracer.count("protocol.messages")
        tracer.count("protocol.wire_bytes", len(result))

    def on_session(args, kwargs, result):
        tracer.count("protocol.frames", result.stats.frames)
        tracer.count("protocol.erasures", result.stats.erasure_count)

    observers = {
        "generate_event_stream": on_events,
        "write_event_log": on_file("noise.event_log_bytes"),
        "channel_capacity": on_capacity,
        "bootstrap_ci": on_bootstrap,
        "run_session": on_session,
        "read_ppm": on_file("imagecodec.ppm_bytes"),
        "write_ppm": on_file("imagecodec.ppm_bytes"),
    }
    # Every public function the CLI imports from a layer module, at the
    # CLI's own attribute.
    for attr, fn in list(vars(cli).items()):
        if attr.startswith("_") or not isinstance(fn, types.FunctionType):
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        if layer in LAYERS and layer != "cli":
            at(cli, attr, f"{layer}.{attr}", observers.get(attr))

    # Calls between layers and the hot calls inside one, where the caller
    # looks them up.
    for owner in (noise, interferometer):
        at(owner, "evolve_bsm", "interferometer.evolve_bsm")
        at(owner, "measurement_distribution", "interferometer.measurement_distribution")
        at(owner, "make_bell", "states.make_bell")
    at(interferometer, "overlap", "states.overlap")
    at(noise, "sample_detection", "noise.sample_detection", on_detection)
    at(protocol, "sample_detection", "noise.sample_detection", on_detection)
    at(protocol, "encode_message", "protocol.codec", on_encode)
    at(protocol, "decode_message", "protocol.codec")
    at(capacity, "channel_capacity", "capacity.channel_capacity", on_capacity)
    at(capacity, "estimate_conditionals", "capacity.estimate_conditionals")
    if hasattr(noise, "PhaseWalk"):
        at(noise.PhaseWalk, "phases_at", "noise.phase_walk")
    at(states.TwoPhotonState, "scaled", "states.TwoPhotonState.scaled")
    at(states.TwoPhotonState, "added", "states.TwoPhotonState.added")

    init = states.TwoPhotonState.__init__

    def counting_init(self, *args, **kwargs):
        tracer.counts["states.objects_built"] = tracer.counts.get("states.objects_built", 0) + 1
        init(self, *args, **kwargs)

    states.TwoPhotonState.__init__ = counting_init
    at(cli, "main", "cli.main")


def reduce_spans(path: str) -> dict:
    """Calls, inclusive and self seconds per span name, plus the counters."""
    with open(path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["spans"]
    name, parent, start, end = array("i"), array("i"), array("d"), array("d")
    with open(path + ".bin", "rb") as fh:
        for arr in (name, parent, start, end):
            arr.fromfile(fh, n)
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    spans: dict[str, list[float]] = {}
    for i in range(n):
        row = spans.setdefault(header["names"][name[i]], [0, 0.0, 0.0])
        dur = end[i] - start[i]
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered[i]
    header["spans"] = spans
    header["span_count"] = n
    return header
