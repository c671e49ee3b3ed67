"""Shared pieces of the workloads: run bookkeeping, program processes,
percentiles and quality checks."""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_HOOK = Path(__file__).resolve().parent / "trace"
#: scratch space of a run, inside the checkout; nothing in it is committed.
WORK = ROOT / ".perfbench_run"

#: how many times each run sets the program up; setup_s is the median.
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Run:
    """What one pass of a workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.problems


def program_env(work: Path, trace_dir: Optional[Path]) -> Dict[str, str]:
    """Environment of the program processes.  A traced pass adds the
    start-up hook of ``perfbench/trace`` to ``PYTHONPATH``."""
    env = dict(os.environ)
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(TRACE_HOOK))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One BLAS thread per process: with the default pools, the program and
    # its two lanes oversubscribe a 2-core host and spin-wait, which doubles
    # the lanes' fit time and most of its run-to-run spread.
    env["OPENBLAS_NUM_THREADS"] = "1"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # the fleet keeps replica port files there
    return env


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; failed ops enter as ``inf``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_supported(n_samples: int, q: float) -> bool:
    """A tail is reported only with at least ten samples beyond it."""
    return n_samples * (100.0 - q) / 100.0 >= 10


def f1_score(predictions, truth, items) -> float:
    from repro.evaluation.metrics import evaluate_predictions

    return evaluate_predictions(predictions, truth, items=items).f1


def check_f1_repeats(run: Run, workload: str, seed: int, seconds: float, f1: float) -> None:
    """F1 of one seed must read the same on every run of one checkout;
    the first run that passed every other check records it."""
    path = WORK / "f1_by_seed.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}:{seed}:{seconds:g}"
    if key in record:
        run.check(record[key] == f1, f"f1 {f1!r} differs from an earlier run's {record[key]!r}")
    elif run.correct:
        record[key] = f1
        path.write_text(json.dumps(record, indent=1, sort_keys=True))


def vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def child_pids(pid: int) -> List[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _pong(address: str) -> bool:
    from repro.errors import ReproError
    from repro.utils.transport import connect, parse_address, request

    try:
        channel = connect(*parse_address(address))
    except ReproError:
        return False
    try:
        return request(channel, ("ping",), timeout=10.0) == "pong"
    except ReproError:
        return False
    finally:
        channel.close()


class Program:
    """One ``python -m repro.<module>`` program process that announces its
    listening addresses in a port file, one per line."""

    def __init__(self, module: str, args: Sequence[str], env, port_file: Path, n_addresses: int):
        self.port_file = port_file
        self.n_addresses = n_addresses
        port_file.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, "-m", module, *args, "--port-file", str(port_file)],
            env=env,
            cwd=str(ROOT),
            stdout=subprocess.DEVNULL,
        )
        self.addresses: List[str] = []

    def wait_ready(self, deadline: float) -> None:
        """Block until every announced listener answers ``ping``.  A port
        file read half-written fails the ping and is read again."""
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"program exited during start-up ({self.process.returncode})")
            if time.monotonic() > deadline:
                raise RuntimeError("program listeners did not answer ping in time")
            text = self.port_file.read_text() if self.port_file.exists() else ""
            lines = [line.strip() for line in text.splitlines() if line.strip()]
            if len(lines) == self.n_addresses and all(_pong(line) for line in lines):
                self.addresses = lines
                return
            time.sleep(0.005)

    def peak_rss_kb(self) -> int:
        """Summed VmHWM of the program and the processes it spawned."""
        pids = [self.process.pid, *child_pids(self.process.pid)]
        return sum(vm_hwm_kb(pid) for pid in pids)

    def stop(self) -> None:
        """Graceful stop: SIGINT takes every repro CLI through its shutdown
        path (the fleet stops its replicas first).  Killed only if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def start_programs(specs, env, work: Path) -> List[Program]:
    """Start ``(module, args, n_addresses)`` programs together and wait
    until all of them answer ``ping``."""
    programs = []
    try:
        for index, (module, args, n_addresses) in enumerate(specs):
            port_file = work / f"ports-{index}"
            programs.append(Program(module, args, env, port_file, n_addresses))
        deadline = time.monotonic() + READY_TIMEOUT_S
        for program in programs:
            program.wait_ready(deadline)
    except BaseException:
        stop_programs(programs)
        raise
    return programs


def stop_programs(programs: Sequence[Program]) -> None:
    for program in programs:
        program.stop()


def timed_setups(run: Run, specs, env, work: Path) -> List[Program]:
    """Start the programs SETUP_REPEATS times, cold each time; keep the
    last set running.  Returns it, with ``setup_s`` recorded in ``run``."""
    times = []
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        programs = start_programs(specs, env, work)
        times.append(time.perf_counter() - started)
        run.op()
        if attempt < SETUP_REPEATS - 1:
            stop_programs(programs)
    run.metrics["setup_s"] = median(times)
    return programs
