"""The three benchmark workloads and the checks on their outputs.

Each workload is a fixed list of CLI requests built from the seed once per
run, repeated pass after pass by the harness. Every request writes its
reports to a directory of its own, emptied with the rest of the work
directory before each pass, so a check never reads an earlier report. A
check reads them and returns a problem description, or None when the
output agrees with the stored mpmath reference ordinates.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from stats import latencies

TWO_PI = 2.0 * math.pi
T_MAX = 60.0  # the CLI's default t_max, used by sweep and probe
REFERENCE_CSV = Path(__file__).resolve().parent / "reference_zeros.csv"


def load_reference() -> list[float]:
    with open(REFERENCE_CSV, newline="") as fh:
        return [float(row["ordinate"]) for row in csv.DictReader(fh)]


def nearest_distance(t: float, ordinates: list[float]) -> float:
    return min(abs(t - z) for z in ordinates)


def read_json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def read_csv(out: Path, name: str) -> list[dict]:
    with open(out / name, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Request:
    kind: str  # label for per-kind statistics, e.g. "detect-multiple"
    command: str  # CLI subcommand, also the name of the request's root span
    argv: list[str]
    out: Path  # the request's report directory
    check: Callable[[int, Path], str | None]  # (exit code, out) -> problem or None
    # fails today for a known reason: failing counts as failed, not wrong
    expect_failure: bool = False


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, work: Path, reference: list[float]) -> None:
        self.seed = seed
        self.work = work
        self.reference = reference
        self._ids = itertools.count()

    def reset(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def prepare(self, zc) -> None:
        """Precondition files for a pass, built after `reset`; timed as set-up."""

    def requests(self) -> list[Request]:
        raise NotImplementedError

    def extra_metrics(self, passes: list[list]) -> dict[str, float]:
        return {}

    def request(self, kind: str, cache: Path, args: list[str], check) -> Request:
        """A request; `args` holds options, the subcommand and its arguments."""
        out = self.work / "out" / str(next(self._ids))
        # absolute cache path, so ZETACYCLES_CACHE_DIR cannot redirect it
        argv = ["--cache-path", str(cache), "--output-dir", str(out), *args]
        command = next(a for a in args if a in COMMANDS)
        return Request(kind, command, argv, out, check)


COMMANDS = ("zeros", "scan", "detect", "verify", "laplacian", "jets")


def _build_cache60(wl: Workload, zc) -> Path:
    cache = wl.work / "cache" / "zeros60.csv"
    code = zc.cli.main(["--cache-path", str(cache), "--output-dir", str(wl.work), "zeros"])
    if code != 0:
        raise RuntimeError(f"zeros up to t={T_MAX:g} exited with {code} during set-up")
    return cache


# ---------------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"
    why = ("criterion-3 scan of L in [0.3, 1.5] at step 1e-3, in 12 consecutive calls:"
           " the batch hot path of cycles, specfun zeta (EM and RS) and schwartz.mellin_psi")
    STEP = 1e-3
    LENGTHS = 1201  # 1.2 / STEP + 1
    # One 5-second call fits only 6-7 times in a run, and its time spread
    # more over seeds than that of 12 calls of about 0.45 s.
    CHUNKS = 12

    def __init__(self, seed: int, work: Path, reference: list[float]) -> None:
        super().__init__(seed, work, reference)
        # the seed moves the window by less than one step
        self.start = 0.3 + random.Random(seed).uniform(0.0, 0.9) * self.STEP

    def prepare(self, zc) -> None:
        self.cache = _build_cache60(self, zc)

    def requests(self) -> list[Request]:
        # The calls' interior grid points partition those of the full grid,
        # and each call also takes one neighbour on either side, so every
        # local minimum of the full profile is found, once, by some call.
        cuts = [1 + (self.LENGTHS - 2) * j // self.CHUNKS for j in range(self.CHUNKS + 1)]
        reqs = []
        for first, last in zip([c - 1 for c in cuts[:-1]], cuts[1:]):
            window = f"{self.start + first * self.STEP!r},{self.start + last * self.STEP!r}"
            args = ["--L-window", window, "--scan-step", repr(self.STEP), "scan"]
            reqs.append(self.request("scan", self.cache, args,
                                     partial(self._check_call, last - first + 1, None)))
        # the last call of a pass also checks coverage over all calls' dips
        reqs[-1].check = partial(self._check_call, last - first + 1, [r.out for r in reqs])
        return reqs

    def _check_call(self, lengths: int, pass_outs: list[Path] | None, code: int,
                    out: Path) -> str | None:
        if code != 0:
            return f"scan exited with {code}"
        profiled = len(read_csv(out, "scan.csv"))
        if profiled != lengths:
            return f"scan profiled {profiled} lengths, expected {lengths}"
        stray = [s for s in _dips(out) if nearest_distance(s, self.reference) > 5e-3]
        if stray:
            return f"{len(stray)} dips not within 5e-3 of a zero, first at s={stray[0]!r}"
        if pass_outs is None:
            return None
        dips = [s for o in pass_outs for s in _dips(o)]
        missed = [t for t in self.reference if t <= T_MAX and nearest_distance(t, dips) > 5e-3]
        if missed:
            return f"{len(missed)} ordinates up to {T_MAX:g} not covered, first {missed[0]!r}"
        return None

    def extra_metrics(self, passes: list[list]) -> dict[str, float]:
        total = sum(latencies(passes))
        return {"scan_lengths_per_s": self.LENGTHS / total} if math.isfinite(total) else {}


def _dips(out: Path) -> list[float]:
    return [d["s"] for d in read_json(out, "dips.json")["dips"]]


# ---------------------------------------------------------------------------


class ZerosHigh(Workload):
    name = "zeros-high"
    why = ("zeros to t=250 on an empty cache, then cached, then laplacian: specfun"
           " Z grid and bisection plus cache I/O, no scan work")
    EXPECTED = 108

    def __init__(self, seed: int, work: Path, reference: list[float]) -> None:
        super().__init__(seed, work, reference)
        # zero 108 is at 249.57 and zero 109 at 251.01: any t_max here gives 108
        self.t_max = 250.0 + random.Random(seed).uniform(0.0, 0.5)
        self.cache = work / "cache" / "zeros250.csv"
        self.expected = [t for t in reference if t <= self.t_max]
        if len(self.expected) != self.EXPECTED:
            raise RuntimeError("reference ordinates do not hold 108 zeros below t_max")

    def requests(self) -> list[Request]:
        t_max = ["--t-max", repr(self.t_max)]
        return [
            self.request("zeros-cold", self.cache, [*t_max, "zeros"],
                         partial(self._check_zeros, False)),
            self.request("zeros-warm", self.cache, [*t_max, "zeros"],
                         partial(self._check_zeros, True)),
            self.request("laplacian", self.cache, [*t_max, "laplacian"], self._check_laplacian),
        ]

    def _check_ordinates(self, ordinates: list[float]) -> str | None:
        if len(ordinates) != self.EXPECTED:
            return f"{len(ordinates)} zeros, expected {self.EXPECTED}"
        worst = max(abs(a - b) for a, b in zip(ordinates, self.expected))
        if worst > 1e-9:
            return f"zero ordinate off the reference by {worst:.3g} > 1e-9"
        return None

    def _check_zeros(self, reused: bool, code: int, out: Path) -> str | None:
        if code != 0:
            return f"zeros exited with {code}"
        report = read_json(out, "zeros_report.json")
        if report["reused"] is not reused:
            return f"zeros report says reused={report['reused']}, expected {reused}"
        with open(self.cache, newline="") as fh:
            ordinates = [float(row["ordinate"]) for row in csv.DictReader(fh)]
        problem = self._check_ordinates(ordinates)
        if problem is None and report["count"] != self.EXPECTED:
            problem = f"zeros report counts {report['count']}, expected {self.EXPECTED}"
        return problem

    def _check_laplacian(self, code: int, out: Path) -> str | None:
        if code != 0:
            return f"laplacian exited with {code}"
        rows = read_csv(out, "laplacian.csv")
        problem = self._check_ordinates([float(r["ordinate"]) for r in rows])
        if problem:
            return problem
        for r in rows:
            t, value = float(r["ordinate"]), float(r["eigenvalue"])
            if r["negativity_ok"] != "True" or abs(value + t * t + 0.25) > 1e-12 * (t * t):
                return f"eigenvalue {value!r} at t={t!r} is not -(t^2 + 1/4)"
        return None

    def extra_metrics(self, passes: list[list]) -> dict[str, float]:
        cold = latencies(passes)[0]  # the first request is the cold zeros
        return {"zeros_per_s": self.EXPECTED / cold} if math.isfinite(cold) else {}


# ---------------------------------------------------------------------------


class Probe(Workload):
    name = "probe"
    why = ("a seeded mix of single detect, jets, verify and laplacian requests:"
           " many scalar zeta calls, and the only load on operators and sheaf")
    # requests per pass by kind besides one detect at, and one next to, each
    # locus multiple; 116 in all, so call_ms_p90 has ten requests beyond it.
    # The 4 short lengths fail today (ROADMAP item 4), the only requests of
    # any workload allowed to.
    RANDOM = 32
    SHORT = 4
    JETS = 8
    VERIFY = 2
    LAPLACIAN = 2
    SECTIONS = 3
    L_MIN = 0.3  # below about 0.266 the padding rows of detect pass t=260
    L_MAX = 4.0
    SHORT_RANGE = (0.1, 0.25)
    FLAG_NEAR = 1e-6  # a row this close to a zero must be flagged (tol 1e-4)
    FLAG_FAR = 1e-3  # a row this far from every zero must not be

    def __init__(self, seed: int, work: Path, reference: list[float]) -> None:
        super().__init__(seed, work, reference)
        self.rng = random.Random(seed)
        self.zeros60 = [t for t in reference if t <= T_MAX]

    def prepare(self, zc) -> None:
        self.cache = _build_cache60(self, zc)
        zeros = zc.specfun.read_zero_cache(self.cache)
        grid = zc.sheaf.build_section_grid(T_MAX, zeros)
        rng = random.Random(self.seed + 1)
        self.sections = []
        for i in range(self.SECTIONS):
            a = complex(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            c, d = rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.0)
            f_plus, f_minus = _analytic_section(a, c, d)
            section = zc.sheaf.make_section(f_plus, f_minus, grid)
            path = self.work / f"section{i}.json"
            path.write_text(json.dumps(zc.sheaf.section_to_payload(section)))
            self.sections.append((path, f_plus, f_minus))

    # -- detect inputs and their reference verdicts ----------------------

    def _expected_flags(self, L: float) -> set[int] | None:
        """Flagged modes the reference predicts at L, or None if a row is
        too close to call (between FLAG_NEAR and FLAG_FAR from a zero)."""
        flagged: set[int] = set()
        n = 1
        while TWO_PI * n / L <= T_MAX:
            dist = nearest_distance(TWO_PI * n / L, self.reference)
            if dist < self.FLAG_NEAR:
                flagged |= {n, -n}
            elif dist <= self.FLAG_FAR:
                return None
            n += 1
        return flagged

    def _log_uniform(self, count: int, lo: float, hi: float) -> list[float]:
        """One draw per equal log-width stratum, redrawn until unambiguous."""
        width = math.log(hi / lo) / count
        out = []
        for i in range(count):
            while True:
                L = lo * math.exp(width * (i + self.rng.random()))
                if self._expected_flags(L) is not None:
                    out.append(L)
                    break
        return out

    def _detect_lengths(self) -> list[tuple[str, float]]:
        # every multiple k L_j (k <= 4) that detect can take today, and a
        # 1e-3 perturbation of it to a seeded side (the other if ambiguous)
        loci = [k * TWO_PI / t for t in self.zeros60 for k in range(1, 5)]
        loci = [L for L in loci if L >= self.L_MIN]
        out = [("detect-multiple", L) for L in loci]
        for L in loci:
            sides = [1e-3, -1e-3] if self.rng.random() < 0.5 else [-1e-3, 1e-3]
            for shift in sides:
                if self._expected_flags(L + shift) is not None:
                    out.append(("detect-perturbed", L + shift))
                    break
        out += [("detect-random", L) for L in self._log_uniform(self.RANDOM, self.L_MIN, self.L_MAX)]
        out += [("detect-short", L) for L in self._log_uniform(self.SHORT, *self.SHORT_RANGE)]
        return out

    def requests(self) -> list[Request]:
        reqs = [self.request(kind, self.cache, ["detect", repr(L)],
                             partial(self._check_detect, L, self._expected_flags(L)))
                for kind, L in self._detect_lengths()]
        for req in reqs:
            req.expect_failure = req.kind == "detect-short"
        reqs += [self.request("jets", self.cache, ["jets", str(path)],
                              partial(self._check_jets, f_plus, f_minus))
                 for path, f_plus, f_minus in itertools.islice(
                     itertools.cycle(self.sections), self.JETS)]
        reqs += [self.request("verify", self.cache, ["verify"], self._check_verify)
                 for _ in range(self.VERIFY)]
        reqs += [self.request("laplacian", self.cache, ["laplacian"], self._check_laplacian)
                 for _ in range(self.LAPLACIAN)]
        self.rng.shuffle(reqs)
        return reqs

    def _check_detect(self, L: float, expected: set[int], code: int, out: Path) -> str | None:
        if code != 0:
            return f"detect({L!r}) exited with {code}"
        report = read_json(out, "detect.json")
        if set(report["flagged"]) != expected or report["verdict"] is not bool(expected):
            return (f"detect({L!r}) flagged {sorted(report['flagged'])},"
                    f" reference {sorted(expected)}")
        for m in report["matched"]:
            if m["distance"] is None or m["distance"] > self.FLAG_NEAR:
                return f"detect({L!r}) mode {m['n']} matched no zero within 1e-6"
        return None

    def _check_jets(self, f_plus, f_minus, code: int, out: Path) -> str | None:
        if code != 0:
            return f"jets exited with {code}"
        rows = read_csv(out, "jets.csv")
        if len(rows) != 2 * len(self.zeros60):
            return f"{len(rows)} jet rows, expected {2 * len(self.zeros60)}"
        for r in rows:
            fn = f_plus if r["slot"] == "plus" else f_minus
            want = fn(float(r["L_k"]))
            got = complex(float(r["jet_re"]), float(r["jet_im"]))
            if r["order"] != "0" or abs(got - want) > 1e-9 * abs(want):
                return f"order-0 jet {got!r} at L={r['L_k']}, analytic {want!r}"
        return None

    def _check_verify(self, code: int, out: Path) -> str | None:
        report = read_json(out, "verify.json")
        if code != 0 or not report["all_pass"]:
            failing = [c["name"] for c in report["checks"] if not c["pass"]]
            return f"verify exited with {code}, failing checks {failing}"
        return None

    def _check_laplacian(self, code: int, out: Path) -> str | None:
        if code != 0:
            return f"laplacian exited with {code}"
        got = [float(r["ordinate"]) for r in read_csv(out, "laplacian.csv")]
        if len(got) != len(self.zeros60) or max(
            abs(a - b) for a, b in zip(got, self.zeros60)
        ) > 1e-9:
            return "laplacian ordinates disagree with the reference"
        return None


def _analytic_section(a: complex, c: float, d: float):
    """A smooth two-slot section vanishing to order 6 at L = 0."""

    def f_plus(L: float) -> complex:
        return a * L**6 * math.exp(-c * L)

    def f_minus(L: float) -> complex:
        return a.conjugate() * L**6 * math.exp(-c * L) * (1.0 + d * L)

    return f_plus, f_minus


WORKLOADS = {cls.name: cls for cls in (Sweep, ZerosHigh, Probe)}
