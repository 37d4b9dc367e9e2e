"""End-to-end benchmark of the grasspack CLI.

    python3 bench/run.py --workload lift-verify --seed 1 --seconds 26 --trace 0

Runs from the root of a source checkout.  Every command is a `grasspack`
subprocess started from this one process, one at a time (a closed loop with
a single client), with PYTHONPATH pointing at the checkout's `src/`.  The
benchmark sets up its inputs several times and reports the median set-up
time, then repeats whole rounds of the workload's commands until `--seconds`
have passed, with a run of calibrate.py before the first round and after each
one.  round_s is the mean round wall time over the mean calibration time,
in seconds of the reference machine.  Each command's output is checked
against values computed apart from grasspack (see checks.py).  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 every
round runs twice, once plainly and once through trace_launcher.py, and the
metrics are the per-layer span totals of one traced round, the tracing
overhead and the untraced per-command medians.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 120

# The mean wall time of one calibrate.py on the reference machine (README.md).
# round_s is scaled by this over the run's mean calibration time, so it reads
# in seconds of that machine.
REFERENCE_CALIBRATION_S = 1.03

# The planted-pair distance fails today on every run: principal_angles takes
# arccos of the singular values of U^T V, which rounds angles below ~1e-8 to
# zero.  It is counted as failed and does not make the run incorrect.
KNOWN_FAULTS = {"planted"}


class Runner:
    """Starts CLI commands, times them and keeps what one pass of a round produced."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.traced = False
        self.peak_rss_kb = 0
        self.new_pass()

    def new_pass(self) -> None:
        self.walls: dict[str, float] = {}
        self.spans: list[dict] = []

    def cli(self, op: str, *args) -> subprocess.CompletedProcess:
        args = [str(a) for a in args]
        if self.traced:
            span_file = WORK / f"spans-{len(self.spans)}.json"
            span_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "trace_launcher.py"), str(span_file), *args]
        else:
            cmd = [sys.executable, "-m", "grasspack.cli", *args]
        # Output goes to files and the child is reaped with wait4, which gives
        # this command's own peak RSS; a timer kills a command that hangs.
        with open(WORK / "stdout.txt", "w+") as out, open(WORK / "stderr.txt", "w+") as err:
            start = time.perf_counter()
            child = subprocess.Popen(cmd, cwd=WORK, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
                elapsed = time.perf_counter() - start
            finally:
                timer.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            proc = subprocess.CompletedProcess(cmd, child.returncode, out.read(), err.read())
        self.walls[op] = self.walls.get(op, 0.0) + elapsed
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.traced:
            self.spans.append(json.loads(span_file.read_text()))
        return proc

    def calibrate(self) -> float:
        """Wall time of one calibrate.py, which does the same work on every run."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "calibrate.py")],
            cwd=WORK, capture_output=True, check=True, timeout=COMMAND_TIMEOUT_S,
        )
        return time.perf_counter() - start

    def checked(self, op: str, *args) -> None:
        """A set-up command, which must succeed."""
        proc = self.cli(op, *args)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(map(str, args))} exited {proc.returncode}: {proc.stderr.strip()}")

    def json_out(self, op: str, *args) -> tuple[int, dict]:
        proc = self.cli(op, *args, "--format", "json")
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            doc = {}
        return proc.returncode, doc if isinstance(doc, dict) else {}


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class LiftVerify:
    """The paper's objects: block-diagonal lifts of simplex lines and their complements.

    The seed rotates, reorders and re-signs each simplex line set before it
    is lifted; every angle the checks use is invariant under that.
    """

    K = 3
    PLANTED = (2e-9, 5e-9)

    def setup(self, run: Runner, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        for n in (4, 3):
            lines = WORK / f"lines{n}.json"
            run.checked("setup", "construct", "simplex-lines", f"n={n}", "-o", lines.name)
            doc = read_json(lines)
            vecs = np.asarray(doc["members"])
            signs = rng.choice([-1.0, 1.0], size=len(vecs))
            vecs = (vecs[rng.permutation(len(vecs))] * signs[:, None]) @ random_orthogonal(rng, n).T
            doc["members"] = vecs.tolist()
            write_json(lines, doc)
            run.checked("setup", "construct", "lift", f"k={self.K}", f"in={lines.name}", "-o", f"lift{n}.json")
        # Fixed, not seeded: two planes of R^4 at principal angles 2e-9 and 5e-9.
        a, b = self.PLANTED
        u = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        v = [[math.cos(a), 0.0], [0.0, math.cos(b)], [math.sin(a), 0.0], [0.0, math.sin(b)]]
        write_json(
            WORK / "planted.json",
            {"schema_version": "1", "kind": "subspaces", "n": 4, "k": 2, "members": [u, v], "metadata": {}},
        )
        return {"lift3": read_json(WORK / "lift3.json")}

    def round(self, run: Runner, state: dict, seed: int, r: int) -> list:
        k = self.K
        alpha = math.acos(1 / 4)
        fs_pairs, fs_common, fs_dev = checks.lift_fubini_study(5, k, 1 / 4)
        ops = []
        code, doc = run.json_out("verify", "verify", "lift4.json", "thetaF")
        ops.append(("verify", checks.check_verify(code, doc, math.comb(5**k, 2), alpha)))
        code, doc = run.json_out("verify_det", "verify", "lift4.json", "fubini-study")
        ops.append(("verify_det", checks.check_verify_not_equiangular(code, doc, fs_pairs, fs_common, fs_dev)))
        code, doc = run.json_out("certify", "certify", "lift4.json", "--alpha", repr(alpha))
        ops.append(("certify", checks.check_certificate(code, doc, 5**k, k, 4 * k, 1 / 4)))
        code = run.cli("complement", "complement", "lift3.json", "-o", "comp3.json").returncode
        comp = read_json(WORK / "comp3.json") if code == 0 else {}
        ops.append(("complement", checks.check_complements(code, comp, state["lift3"])))
        code, doc = run.json_out("dual_verify", "verify", "comp3.json", "thetaF")
        ops.append(("dual_verify", checks.check_verify(code, doc, math.comb(4**k, 2), math.acos(1 / 3))))
        code, doc = run.json_out("planted", "distance", "planted.json", "thetaF", "0", "1", "--tol", "1e-10")
        ops.append(("planted", checks.check_distance(code, doc, self.PLANTED[0], 1e-6)))
        return [(op, reason, None) for op, reason in ops]


class Pack:
    """One `grasspack pack` per round, on a problem seeded from (seed, round)."""

    def __init__(self, k: int, n: int, metric: str, restarts: int, max_iters: int, upper: float, lower: float):
        self.problem = {
            "k": k, "n": n, "m": 6, "metric": metric, "objective": "maximin",
            "restarts": restarts, "max_iters": max_iters,
        }
        self.upper, self.lower = upper, lower

    def write_problem(self, seed: int, r: int) -> None:
        problem_seed = int(np.random.default_rng([seed, r]).integers(2**31))
        write_json(WORK / "problem.json", dict(self.problem, seed=problem_seed))

    def setup(self, run: Runner, seed: int) -> dict:
        run.checked("setup", "lines-catalog")
        self.write_problem(seed, 0)
        return {}

    def round(self, run: Runner, state: dict, seed: int, r: int) -> list:
        self.write_problem(seed, r)
        result = WORK / "problem.result.json"
        result.unlink(missing_ok=True)
        code = run.cli("pack", "pack", "problem.json", "-o", result.name).returncode
        text = result.read_text(encoding="utf-8") if code == 0 else ""
        doc = json.loads(text) if text else {}
        p = self.problem
        reason = checks.check_packing(code, doc, p["metric"], p["m"], self.upper, self.lower)
        return [("pack", reason, text)]


WORKLOADS = {
    "lift-verify": LiftVerify(),
    "pack-lines": Pack(1, 3, "thetaK", 4, 20000, checks.line_packing_bound(3, 6), checks.line_packing_bound(3, 6) - 5e-3),
    "pack-planes": Pack(2, 4, "chordal", 2, 4000, checks.simplex_bound(2, 4, 6), checks.simplex_bound(2, 4, 6) - 2e-2),
}

COMMANDS = ("verify", "verify_det", "certify", "complement", "dual_verify", "pack")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced commands of one pass."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counters: dict[str, int] = {}
    for doc in spans:
        for name, s in doc["spans"].items():
            calls[name] = calls.get(name, 0) + s["calls"]
            total[name] = total.get(name, 0.0) + s["total_s"]
            own[name] = own.get(name, 0.0) + s["self_s"]
        for name, value in doc["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    return {
        "linalg.svd_calls": calls.get("linalg.jacobi_svd", 0),
        "linalg.svd_s": total.get("linalg.jacobi_svd", 0.0),
        "linalg.svd_us": per(total.get("linalg.jacobi_svd", 0.0), calls.get("linalg.jacobi_svd", 0), 1e6),
        "linalg.det_calls": calls.get("linalg.determinant", 0),
        "linalg.det_s": total.get("linalg.determinant", 0.0),
        "linalg.orthonormalize_calls": calls.get("linalg.orthonormalize", 0),
        "linalg.orthonormalize_s": total.get("linalg.orthonormalize", 0.0),
        "grassmann.principal_angles_calls": calls.get("grassmann.principal_angles", 0),
        "grassmann.principal_angles_self_s": own.get("grassmann.principal_angles", 0.0),
        "grassmann.complement_s": total.get("grassmann.complement", 0.0),
        "metrics.evaluate_calls": calls.get("metrics.evaluate", 0),
        "metrics.evaluate_self_s": own.get("metrics.evaluate", 0.0),
        "verify.scan_s": total.get("verify.check_equiangular", 0.0),
        "verify.pairs": counters.get("verify.pairs", 0),
        "verify.pairs_per_s": per(counters.get("verify.pairs", 0), total.get("verify.check_equiangular", 0.0)),
        "verify.certificate_s": total.get("verify.polynomial_certificate", 0.0),
        "constructions.family_init_s": total.get("constructions.SubspaceFamily.__post_init__", 0.0),
        "constructions.lift_s": total.get("constructions.lift_lines_to_subspaces", 0.0),
        "family_io.load_s": total.get("family_io.load_family", 0.0) + total.get("family_io.load_lineset", 0.0),
        "family_io.save_s": total.get("family_io.save_family", 0.0) + total.get("family_io.save_lineset", 0.0),
        "packing.solve_s": total.get("packing.solve", 0.0),
        "packing.self_s": own.get("packing.solve", 0.0),
        "packing.iters_per_s": per(counters.get("packing.iterations", 0), total.get("packing.solve", 0.0)),
        "packing.improvements": counters.get("packing.improvements", 0),
        "trace.spans": sum(calls.values()),
    }


UNITS = {"calls": "count", "pairs": "count", "improvements": "count", "spans": "count", "us": "us",
         "per_s": "1/s", "ratio": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grasspack" / "cli.py").is_file():
        print(f"error: no grasspack source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    run = Runner()
    attempted = failed = 0
    correct = True

    def account(ops: list) -> None:
        nonlocal attempted, failed, correct
        for op, reason, _ in ops:
            attempted += 1
            if reason is None:
                continue
            failed += 1
            known = op in KNOWN_FAULTS
            correct = correct and known
            print(f"{args.workload} {op}{' (known fault)' if known else ''}: {reason}", file=sys.stderr)

    if not args.trace:
        # Every set-up and every round is followed by a calibration; the
        # last set-up's calibration is also the one before the first round.
        setup = []
        setup_calibrations = [run.calibrate()]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(run, args.seed)
            setup.append(time.perf_counter() - start)
            setup_calibrations.append(run.calibrate())
        rounds = []
        calibrations = setup_calibrations[-1:]
        deadline = time.perf_counter() + args.seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline:
            run.new_pass()
            account(workload.round(run, state, args.seed, r))
            rounds.append(run.walls)
            calibrations.append(run.calibrate())
            r += 1
        round_wall = statistics.mean(sum(walls.values()) for walls in rounds)
        scaled_setup = [
            wall * REFERENCE_CALIBRATION_S / ((before + after) / 2)
            for wall, before, after in zip(setup, setup_calibrations, setup_calibrations[1:])
        ]
        metrics = {
            "round_s": (round_wall * REFERENCE_CALIBRATION_S / statistics.mean(calibrations), "s"),
            "setup_s": (statistics.median(scaled_setup), "s"),
            "peak_rss_mb": (run.peak_rss_kb / 1024, "MB"),
        }
        print(json.dumps({
            "workload": args.workload, "round_walls_s": rounds, "calibration_s": calibrations,
            "setup_walls_s": setup, "setup_calibration_s": setup_calibrations,
        }))
    else:
        layers, overhead, startup = [], [], []
        commands: dict[str, list] = {name: [] for name in COMMANDS}
        deadline = time.perf_counter() + args.seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline:
            passes = []
            for traced in (False, True):
                run.traced = traced
                run.new_pass()
                state = workload.setup(run, args.seed)
                passes.append((workload.round(run, state, args.seed, r), dict(run.walls), run.spans))
            (plain_ops, plain_walls, _), (traced_ops, traced_walls, spans) = passes
            traced_ops = [
                (op, reason or "traced run did not reproduce the result bit for bit", out)
                if out != plain else (op, reason, out)
                for (op, reason, out), (_, _, plain) in zip(traced_ops, plain_ops)
            ]
            account(plain_ops + traced_ops)
            layers.append(layer_metrics(spans))
            overhead.append(sum(traced_walls.values()) / sum(plain_walls.values()))
            for name in COMMANDS:
                commands[name].append(plain_walls.get(name, 0.0))
            run.traced = False
            run.new_pass()
            run.checked("startup", "lines-catalog")
            startup.append(run.walls["startup"])
            r += 1
        metrics = {name: (statistics.median(m[name] for m in layers), unit_of(name)) for name in layers[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(overhead), "ratio")
        metrics["cli.startup_s"] = (statistics.median(startup), "s")
        for name, walls in commands.items():
            metrics[f"cmd.{name}_s"] = (statistics.median(walls), "s")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
