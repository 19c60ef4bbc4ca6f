"""The closed-loop client: runs requests in-process, one at a time.

A request is timed from the call into unimat until it returns, with stdout
and stderr captured. Checks run after the clock stops. Each request has a
deadline enforced by SIGALRM inside the process.
"""

from __future__ import annotations

import gc
import hashlib
import signal
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO
from time import perf_counter

from unimat import cli, experiments

import checks
from checks import Outcome
from spans import Tracer
from workloads import Request


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a request that runs past its deadline.

    It derives from BaseException on purpose: cli.main maps OSError, which
    includes TimeoutError, to exit 2, and would hide a missed deadline.
    """


def _fire(signum, frame):
    raise DeadlineExceeded()


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _fire)


def execute(req: Request, tracer: Tracer | None = None) -> Outcome:
    """Run one request; never raises except for interrupts."""
    out, err = StringIO(), StringIO()
    o = Outcome()
    span = tracer.span("cli.main", req.argv[0]) if tracer and req.argv else nullcontext()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), span:
            signal.setitimer(signal.ITIMER_REAL, req.deadline)
            try:
                if req.argv is not None:
                    o.code = cli.main(req.argv)
                else:
                    name, args = req.call
                    o.value = getattr(experiments, name)(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        o.timed_out = True
    except Exception as exc:  # a raising request is a counted failure, not a crash
        o.exc = exc
    o.seconds = perf_counter() - t0
    o.stdout, o.stderr = out.getvalue(), err.getvalue()
    return o


class Ledger:
    """Verdicts of every request run.

    The first run of each request is checked in full. Later runs of the same
    request must repeat it byte for byte (the CLI promises identical output
    for identical arguments) and inherit its verdict.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self._first: dict[int, tuple[str, str]] = {}

    def record(self, slot: int, req: Request, o: Outcome) -> str:
        digest = hashlib.sha256(repr(o.fingerprint()).encode()).hexdigest()
        if slot not in self._first:
            self._first[slot] = (digest, checks.classify(o, req.check, req.known))
        first_digest, verdict = self._first[slot]
        if digest != first_digest:
            verdict = "fail:output differs from an earlier run of the same request"
        self.counts[verdict.split(":", 1)[0]] += 1
        if verdict != "ok":
            self.failures.append(f"{verdict} <- {req.argv or req.call}")
        return verdict

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def run_passes(
    requests: list[Request],
    ledger: Ledger,
    seconds: float,
    min_passes: int,
) -> tuple[list[float], list[list[float]]]:
    """Run the request list again and again: at least `min_passes` times, and
    then while one more pass of average length fits in `seconds` of request
    time.

    Returns the request time of each pass and, per request, its latencies.
    """
    walls: list[float] = []
    latencies: list[list[float]] = [[] for _ in requests]
    gc.collect()
    gc.freeze()  # the benchmark's own long-lived objects weigh on no collection
    while len(walls) < min_passes or sum(walls) * (1 + 1 / len(walls)) <= seconds:
        wall = 0.0
        for slot, req in enumerate(requests):
            gc.collect()  # untimed: each request starts from the same collector state
            o = execute(req)
            wall += o.seconds
            latencies[slot].append(o.seconds)
            ledger.record(slot, req, o)
        walls.append(wall)
    return walls, latencies


def run_paired_pass(
    requests: list[Request],
    ledger: Ledger,
    tracer: Tracer,
    targets: list,
    flip: bool,
) -> tuple[float, float]:
    """One pass in which every request runs twice back to back, once plain
    and once traced (`targets` wrapped), which first alternating from one
    request to the next and starting with traced when `flip`. Adjacent runs
    see the same machine, so drift cancels out of their ratio.

    Returns the plain and the traced request time of the pass.
    """
    times = [0.0, 0.0]
    for slot, req in enumerate(requests):
        for traced in (False, True) if (slot % 2 == 0) != flip else (True, False):
            gc.collect()
            if traced:
                tracer.request = tracer.counts["requests"]  # unique across passes
                tracer.counts["requests"] += 1
                with tracer.patched(targets):
                    o = execute(req, tracer)
            else:
                o = execute(req)
            times[traced] += o.seconds
            ledger.record(slot, req, o)
    tracer.request = None
    return times[0], times[1]


def run_probes(probes: list[Request], ledger: Ledger) -> None:
    """Known-defect probes: run once, untimed, counted in the ledger only."""
    for i, req in enumerate(probes):
        ledger.record(-1 - i, req, execute(req))
