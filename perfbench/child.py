"""Run one measured step in this fresh interpreter and record it.

Usage: python3 perfbench/child.py '<spec as JSON>'

With ``"mode": "setup"`` the step is ``import swcheck.cli`` (numpy
included).  With ``"mode": "invoke"`` it is one ``cli.run(argv)``; the spec
then also holds ``argv``, ``trace`` (0 or 1), ``invocation`` (the id stamped
on spans) and, when tracing, ``spans`` (where to write them).  ``swcheck.cli``
is imported from the checkout's ``src`` before the clock starts, so an
invocation's time is the time inside ``cli.run`` alone.  Untraced steps run
under a ``probe.SpeedMeter``; traced ones are timed plainly, because the
meter's probes would land inside the spans.  The record goes to ``result``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent


def setup() -> dict:
    with SpeedMeter() as meter:
        import swcheck.cli  # noqa: F401
    return {"wall_s": meter.wall_s, "normalised_s": meter.normalised_s, "probe_s": 0.0}


def invoke(spec: dict) -> dict:
    import swcheck.cli as cli

    def call():
        try:
            return cli.run(spec["argv"]), None
        except (Exception, SystemExit):
            return None, traceback.format_exc()

    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["invocation"]).install()
        start = time.perf_counter()
        code, error = call()
        record = {"wall_s": time.perf_counter() - start, "normalised_s": None, "probe_s": 0.0}
        record["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    else:
        with SpeedMeter() as meter:
            code, error = call()
        record = {
            "wall_s": meter.wall_s,
            "normalised_s": meter.normalised_s,
            "probe_s": sum(d for _, d in meter.inside),
        }
    record.update(
        exit=code,
        error=error,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return record


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    record = setup() if spec["mode"] == "setup" else invoke(spec)
    Path(spec["result"]).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
