"""Per-run state: in-process CLI calls, timed operations and failure counts."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from spans import NullTracer

# Wall-clock budget of one operation.  The largest operation of any workload
# takes a few seconds, so an operation that runs this long is runaway work.
OP_BUDGET_S = 60


# --- machine-speed probe ---------------------------------------------------
#
# The machines this runs on are shared, and their speed drifts by tens of
# percent from one second to the next.  A fixed stdlib kernel (exact
# rationals, string keys, dict inserts and JSON over a few MB, like the
# program itself) of PROBE_CHUNKS chunks is timed whole between operations,
# and one chunk at a time from a timer signal every SAMPLE_EVERY_S while work
# is timed.  Each time is scaled by PROBE_NOMINAL_S over the mean probe time
# across it, so times read as seconds at the speed at which the kernel takes
# PROBE_NOMINAL_S.  The probe never calls circuitmarket, but it runs in the
# program's process, and the timer samples interrupt the program mid-call, so
# it shares the program's heap, allocator and caches: a change to the
# program's memory footprint can move the probe too (README.md says by how
# much).  Probing time is left out of every time and span; raw wall times are
# kept next to the scaled ones in the result file.

PROBE_NOMINAL_S = 0.028
PROBE_CHUNKS = 20
CHUNK_ITEMS = 300
PROBE_EVERY_S = 0.25
SAMPLE_EVERY_S = 0.05
_PROBE_VALUES = [Fraction(i, i % 97 + 1) for i in range(60000)]
_PROBE_ORDER = random.Random(0).sample(range(60000), PROBE_CHUNKS * CHUNK_ITEMS)


def speed_probe(chunks: int = PROBE_CHUNKS, offset: int = 0) -> float:
    """Seconds the full probe kernel would take now, estimated from `chunks`
    of its PROBE_CHUNKS chunks starting at chunk `offset`.  A timer sample
    runs one chunk, so samples and full probes measure the same unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for c in range(offset, offset + chunks):
            k = c % PROBE_CHUNKS
            acc, table = Fraction(0), {}
            for j in _PROBE_ORDER[k * CHUNK_ITEMS:(k + 1) * CHUNK_ITEMS]:
                acc += _PROBE_VALUES[j]
                table[f"g{j}"] = (j, acc.numerator & 255)
            json.loads(json.dumps(table))
        return (time.perf_counter() - start) * PROBE_CHUNKS / chunks
    finally:
        if enabled:
            gc.enable()


class OpTimeout(BaseException):
    """Raised in an operation that outlived OP_BUDGET_S.  A BaseException, so
    that the CLI's own handlers cannot turn it into an exit code."""


class CommandError(Exception):
    """A CLI command returned an exit code its caller did not allow."""


class ByteSink:
    """Stands in for stdout during in-process CLI calls.  It counts what the
    command prints, so that terminal or pipe cost is never timed, and keeps
    the text only when asked to.  The CLI prints JSON, which is ASCII, so
    characters are bytes."""

    def __init__(self, keep: bool):
        self.bytes = 0
        self._parts: Optional[list[str]] = [] if keep else None

    def write(self, text: str) -> int:
        self.bytes += len(text)
        if self._parts is not None:
            self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> Optional[str]:
        return None if self._parts is None else "".join(self._parts)


@dataclass
class Op:
    """One timed operation and the check of its outputs, which runs untimed."""

    kind: str
    label: str
    act: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class OpRecord:
    """A completed operation: wall seconds without probing, in total
    (`raw_s`) and per CLI command (`stages`), and the indices of the last
    probe before it and the first probe after it."""

    kind: str
    raw_s: float
    stages: dict[str, float]
    first: int
    last: int


@dataclass
class Run:
    work: Path
    seed: int
    cli: object
    tracer: object = field(default_factory=NullTracer)
    records: list[OpRecord] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    stdout_bytes: int = 0
    cli_errors: int = 0
    artifacts: dict[str, str] = field(default_factory=dict)
    _since_probe: float = 0.0
    _probing_s: float = 0.0

    def command(self, argv: list[str], allowed=(0,), keep: bool = False):
        """Run one CLI command in-process; returns (exit code, stdout text or
        None).  Exit codes outside `allowed` raise CommandError."""
        sink, err = ByteSink(keep), io.StringIO()
        start, probing = time.perf_counter(), self._probing_s
        with self.tracer.span("cli." + argv[0]), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(err):
            code = self.cli.run(argv)
        spent = time.perf_counter() - start - (self._probing_s - probing)
        self.stage_s[argv[0]] = self.stage_s.get(argv[0], 0.0) + spent
        self.stdout_bytes += sink.bytes
        if code not in allowed:
            self.cli_errors += 1
            raise CommandError(f"{argv[0]} exited {code}: {err.getvalue().strip()[:300]}")
        return code, sink.text()

    # --- timing ---------------------------------------------------------------

    def probe(self) -> None:
        start = time.perf_counter()
        self.probes.append(speed_probe())
        self._since_probe = 0.0
        self._probed(start)

    def _probed(self, start: float) -> None:
        """Book the probing done since `start` as the harness's own time."""
        end = time.perf_counter()
        self._probing_s += end - start
        self.tracer.exclude(start, end)

    @contextlib.contextmanager
    def _sampled(self, budget_s: Optional[float] = None):
        """Probe every SAMPLE_EVERY_S from a timer signal while the body runs;
        past `budget_s` seconds the next sample raises OpTimeout instead."""
        start = time.perf_counter()

        def sample(signum, frame):
            if budget_s is not None and time.perf_counter() - start > budget_s:
                raise OpTimeout(f"operation exceeded {budget_s} s")
            begin = time.perf_counter()
            self.probes.append(speed_probe(1, len(self.probes)))
            self._probed(begin)

        previous = signal.signal(signal.SIGALRM, sample)
        outer = signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, *outer)
            signal.signal(signal.SIGALRM, previous)

    def _clock(self, fn):
        """(result, wall seconds without probing, index of the last probe
        before fn) of fn()."""
        first = len(self.probes) - 1
        start, probing = time.perf_counter(), self._probing_s
        result = fn()
        return result, time.perf_counter() - start - (self._probing_s - probing), first

    def execute(self, op: Op) -> bool:
        """Time `op` under the wall-clock budget, then check it.  A failure of
        either is counted and recorded, never raised."""
        self.attempted += 1
        if not self.probes:
            self.probe()
        self.stage_s = {}
        self.tracer.op = op.label
        try:
            with self._sampled(OP_BUDGET_S):
                result, elapsed, first = self._clock(op.act)
        except (OpTimeout, Exception) as exc:  # counted; the run goes on
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return False
        finally:
            self.tracer.op = None
        self.records.append(OpRecord(op.kind, elapsed, self.stage_s, first, len(self.probes)))
        self._since_probe += elapsed
        if self._since_probe >= PROBE_EVERY_S:
            self.probe()
        try:
            problems = op.check(result)
        except Exception as exc:  # a malformed output is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{op.label}: " + "; ".join(problems[:3]))
            return False
        return True

    def settle(self) -> None:
        """Probe once more if the last operation has no probe after it yet."""
        if self.records and self.records[-1].last >= len(self.probes):
            self.probe()

    def scale(self, first: int, last: int) -> float:
        """Factor from wall seconds to probe-nominal seconds for work done
        between probes `first` and `last`."""
        window = self.probes[first:last + 1]
        return PROBE_NOMINAL_S * len(window) / sum(window)

    def scaled(self, record: OpRecord, stage: Optional[str] = None) -> float:
        seconds = record.raw_s if stage is None else record.stages.get(stage, 0.0)
        return seconds * self.scale(record.first, record.last)

    def timed(self, fn) -> tuple[object, float, float]:
        """(result, scaled seconds, wall seconds) of fn(), between two
        probes.  Probing time inside fn does not count."""
        self.probe()
        with self._sampled():
            result, raw, first = self._clock(fn)
        self.probe()
        return result, raw * self.scale(first, len(self.probes) - 1), raw

    def fingerprint(self, *paths: Path) -> None:
        """Record the sha256 of compiled artifacts, keyed by work-relative path."""
        for path in paths:
            key = str(path.relative_to(self.work))
            self.artifacts[key] = hashlib.sha256(path.read_bytes()).hexdigest()
