"""The measured child: one round of one workload in a fresh interpreter.

``harness.run_round`` starts it with ``src`` on PYTHONPATH, a memory cap and a
timeout, and sends a JSON spec on stdin.  The child answers with JSON lines
on stdout:

- ``{"ready": t, "cpu": c, "loop": [..]}`` once set-up is done.  ``c`` is
  the CPU time (user + system) the child has used since the interpreter
  started, less the calibration bursts.  ``loop`` holds the times of
  ``speed.burst()`` run before and after set-up.  ``t`` is read from the
  monotonic clock, which the parent shares, so the parent can also time
  set-up from spawn.
- ``{"i": k, "t0": .., "t1": .., "ok": .., "err": .., "digest": .., "data": ..}``
  for each op, as it finishes.
- ``{"done": true, "maxrss_kb": .., "caches": .., "trace": .., "samples": ..}``
  at the end.  ``samples`` are the ``(start, seconds)`` of the calibration
  loop, sampled while the ops ran (not in a traced round).
"""

import json
import os
import resource
import sys
import time
from time import perf_counter


def main():
    out = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr  # a stray print cannot corrupt the protocol

    def emit(obj):
        out.write(json.dumps(obj, separators=(",", ":")) + "\n")

    spec = json.loads(sys.stdin.read())
    import speed

    cpu = time.process_time()
    loop = speed.burst()
    cpu -= time.process_time()  # minus the burst's CPU time
    import stansym  # noqa: F401  (set-up includes the package import)

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    import ops

    decoded = [(op["op"], ops.KINDS[op["op"]][0](op)) for op in spec["ops"]]
    ready, cpu = time.monotonic(), cpu + time.process_time()
    emit({"ready": ready, "cpu": cpu, "loop": loop + speed.burst()})
    if spec["setup_only"]:
        return
    sampler = None if tracer else speed.Sampler()
    if sampler:
        sampler.start()
    _run_ops(decoded, ops, tracer, emit)
    if sampler:
        sampler.stop()
    done = {"done": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if sampler:
        done["samples"] = sampler.samples
    from tracer import cache_info

    done["caches"] = cache_info()
    if tracer is not None:
        done["trace"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    emit(done)


def _run_ops(decoded, ops, tracer, emit):
    for i, (kind, args) in enumerate(decoded):
        _, run, check = ops.KINDS[kind]
        if tracer is not None:
            tracer.op_begin(i)
        err = raw = None
        t0 = perf_counter()
        try:
            raw = run(args)
        except Exception as exc:  # the op fails; the round goes on
            err = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.op_end()
        line = {"i": i, "t0": t0, "t1": t1, "ok": False, "err": err, "digest": None, "data": None}
        if err is None:
            try:
                result, line["data"] = check(args, raw)
                line["digest"] = ops.digest(result)
                line["ok"] = True
            except Exception as exc:
                line["err"] = f"{type(exc).__name__}: {exc}"
        emit(line)


if __name__ == "__main__":
    main()
