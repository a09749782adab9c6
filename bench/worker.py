"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--rounds R] [--size full|tiny] [--trace]
                            [--setup-only]

`bench/run.py` starts this with `src/` of the checkout on PYTHONPATH and
NLCA_CACHE_LIMIT cleared, and reads the one JSON line it prints.  A run
repeats rounds until `--seconds` of wall time have passed (or exactly
`--rounds` rounds); every round of a workload does the same amount of work
on inputs drawn from (seed, round).  Each operation is timed in the CPU
time of the worker's thread, less the probes sampled during it, and scaled
to the host's speed (see "host speed" below); then it is checked against a
reference that is an input of the benchmark, never an output of the code
under test.  Traced runs are not scaled.
"""

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

WORKLOADS = ("cli_cold", "identities_warm", "reduce_deep")

# Presentations each workload parses during set-up.
PRESENTATIONS = {
    "cli_cold": ("virasoro", "free_boson", "free_fermion", "affine_sl2", "w3",
                 "w3_ansatz"),
    "identities_warm": ("virasoro", "free_boson", "free_fermion",
                        "affine_sl2"),
    "reduce_deep": ("free_boson", "free_fermion", "affine_sl2", "virasoro",
                    "w3"),
}


def table_path(name):
    return str(ROOT / "src" / "nlca" / "algebras" / (name + ".nlca"))


# -- references --------------------------------------------------------------

def partitions(n, parts):
    """Number of partitions of n into parts from the increasing list
    `parts`, each used any number of times (coin-change count)."""
    ways = [1] + [0] * n
    for p in parts:
        for m in range(p, n + 1):
            ways[m] += ways[m - p]
    return ways[n]


def distinct_partitions(n, parts):
    """Number of partitions of n into distinct parts from `parts`."""
    ways = [1] + [0] * n
    for p in parts:
        for m in range(n, p - 1, -1):
            ways[m] += ways[m - p]
    return ways[n]


def character_reference(algebra, max_weight):
    """{weight text: dimension} from partition counts.

    virasoro: partitions of w into parts >= 2 (L has weight 2, T^n L has
    weight 2 + n).  free_fermion: partitions of 2w into distinct odd parts
    (T^n phi has weight n + 1/2 and cannot repeat).
    """
    if algebra == "virasoro":
        return {str(w): partitions(w, list(range(2, w + 1)))
                for w in range(max_weight + 1)}
    out = {}
    for twice in range(2 * max_weight + 1):
        out[str(Fraction(twice, 2))] = distinct_partitions(
            twice, list(range(1, twice + 1, 2)))
    return out


def ordered(gens, mono):
    """PBW order: factor keys nondecreasing, no odd factor repeated."""
    for a, b in zip(mono, mono[1:]):
        ka, kb = gen.key(gens, a), gen.key(gens, b)
        if ka > kb or (ka == kb and gens[a[0]][1]):
            return False
    return True


def weight(gens, mono):
    return sum((gens[g][3] + n for g, n in mono), Fraction(0))


def sorted_with_sign(gens, mono):
    """Sorted word and the Koszul sign of the sort; sign 0 when an odd
    factor repeats."""
    odd = [gen.key(gens, f) for f in mono if gens[f[0]][1]]
    sign = 1
    for i, ki in enumerate(odd):
        for kj in odd[i + 1:]:
            if ki == kj:
                sign = 0
            elif ki > kj:
                sign = -sign
    return tuple(sorted(mono, key=lambda f: gen.key(gens, f))), sign


# -- cli_cold ----------------------------------------------------------------

def run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def expect_golden(name):
    golden = (ROOT / "tests" / "golden" / name).read_text(encoding="utf-8")

    def check(res):
        code, out, _ = res
        if code != 0:
            return "exit %s, expected 0" % code
        if out != golden:
            return "output differs from tests/golden/%s" % name
        return None
    return check


def expect_character(algebra, max_weight):
    want = character_reference(algebra, max_weight)

    def check(res):
        code, out, _ = res
        if code != 0:
            return "exit %s, expected 0" % code
        got = dict(item.split(":") for item in out.split())
        if {k: int(v) for k, v in got.items()} != want:
            return "character differs from the partition count"
        return None
    return check


def expect_failed_check(failing, passing=()):
    def check(res):
        code, out, _ = res
        if code != 1:
            return "exit %s, expected 1" % code
        status = {r["check"]: r["status"] for r in json.loads(out)["results"]}
        for name in failing:
            if status.get(name) != "fail":
                return "check %s did not fail" % name
        for name in passing:
            if status.get(name) != "pass":
                return "check %s did not pass" % name
        return None
    return check


def cli_cold_ops(size):
    """One cycle of CLI calls; `nlca.cli.main` builds a fresh Engine for
    every call, so the memo is cold each time."""
    weights = (22, 23, 24) if size == "full" else (8, 9, 10)
    ops = []
    for name in ("virasoro", "free_boson", "free_fermion", "affine_sl2", "w3"):
        ops.append(("check:" + name, ["check", table_path(name), "--json"],
                    expect_golden("check_%s.json" % name)))
    # solve, the slowest call, twice, and free_fermion's character at one
    # weight: of the thirteen calls, the two solves are more than a tenth,
    # so that op_p90_ms falls among them, and op_p50_ms falls on the middle
    # virasoro character; neither sits on the edge between two calls of
    # close cost
    ops += [("solve:w3_ansatz",
             ["solve", table_path("w3_ansatz"), "--pin", "delta=1/6",
              "--json"], expect_golden("solve_w3_ansatz.json"))] * 2
    for algebra, ws in (("virasoro", weights), ("free_fermion", weights[2:])):
        for w in ws:
            ops.append(("character:%s:%d" % (algebra, w),
                        ["character", table_path(algebra), "--max-weight",
                         str(w)], expect_character(algebra, w)))
    inputs = BENCH / "inputs"
    ops.append(("check:skewed", ["check", str(inputs / "skewed.nlca"),
                                 "--json"], expect_failed_check(["skew"])))
    ops.append(("check:perturbed", ["check", str(inputs / "perturbed.nlca"),
                                    "--json"],
                expect_failed_check(["jacobi"], ["skew"])))
    return ops


def cli_cold_round(ctx, rng, size):
    import nlca.cli
    ops = cli_cold_ops(size)
    rng.shuffle(ops)
    for label, argv, check in ops:
        yield label, (lambda argv=argv: run_cli(nlca.cli.main, argv)), check


# -- identities_warm ---------------------------------------------------------

FAMILIES = ("n_derivation", "p_sesqui_left", "p_sesqui_right",
            "degree_bounds", "kill_m", "kill_sl", "kill_sn", "kill_wl",
            "kill_wr", "kill_q", "kill_jacobiator")
# each family this many times per algebra and round
IDENTITY_REPS = 32


def identity_op(family, pres, gens, engine, red, rng, shape):
    """(timed thunk, check) for one identity family on fresh inputs."""
    from nlca import RGen, apply_T

    caps = gen.TENSOR_CAPS[pres.name]

    def term(max_factors=None, length=None):
        """A random word of at most `max_factors`, or of `length`, factors
        with a random coefficient."""
        w = gen.tensor_word(len(gens), rng, caps, max_factors, length=length)
        return pres.poly({tuple(RGen(*f) for f in w): gen.coeff(rng)})

    def rgen():
        return RGen(*gen.tensor_word(len(gens), rng, caps, 1, False)[0])

    def single():
        return pres.poly({(rgen(),): gen.coeff(rng)})

    def mono_degree(m):
        return sum(gens[g][2] for g, _ in m)

    def equal(res):
        return None if res[0] == res[1] else "%s identity fails" % family

    def zero(res):
        return None if res.is_zero else "defect survives normal ordering"

    if family in ("n_derivation", "p_sesqui_left", "p_sesqui_right",
                  "degree_bounds"):
        x, y = term(length=shape[0]), term(length=shape[1])
    if family == "n_derivation":
        return (lambda: (engine.nprod(apply_T(x), y)
                         + engine.nprod(x, apply_T(y)),
                         apply_T(engine.nprod(x, y)))), equal
    if family == "p_sesqui_left":
        return (lambda: (engine.pbracket(apply_T(x), y),
                         -engine.pbracket(x, y).shift("lambda", 1))), equal
    if family == "p_sesqui_right":
        def run():
            br = engine.pbracket(x, y)
            return (engine.pbracket(x, apply_T(y)),
                    br.shift("lambda", 1) + br.map_coeffs(apply_T))
        return run, equal
    if family == "degree_bounds":
        bound = (max(map(mono_degree, x.terms), default=0)
                 + max(map(mono_degree, y.terms), default=0))

        def bounded(res):
            prod, br = res
            if any(mono_degree(m) > bound for m in prod.terms):
                return "N breaks its degree bound"
            if any(mono_degree(m) >= bound
                   for X in br.terms.values() for m in X.terms):
                return "P breaks its degree bound"
            return None
        return (lambda: (engine.nprod(x, y), engine.pbracket(x, y))), bounded
    if family == "kill_m":
        A, D = term(1), term(2)
        b, c = rgen(), rgen()
        return (lambda: red.normal_order(engine.m_element(A, b, c, D))), zero
    a, b, c = single(), single(), single()
    if family == "kill_jacobiator":
        return (lambda: red.normal_order_lpoly(
            engine.jacobiator(a, b, c))), zero
    # one operand of sl and q is a single factor: with two 2-factor
    # operands, q builds 4-factor words whose reduction dominated the round
    C, D = term(2), term(1)
    kind, args = {"kill_sl": ("sl", (C, D)), "kill_sn": ("sn", (a, b, C)),
                  "kill_wl": ("wl", (a, c, D)),
                  "kill_wr": ("wr", (term(1), b, c)),
                  "kill_q": ("q", (a, C, D))}[family]
    normal_order = red.normal_order if kind in ("sn", "q") \
        else red.normal_order_lpoly
    return (lambda: normal_order(
        engine.structure_defect(kind, *args))), zero


def identities_warm_round(ctx, rng, size):
    """Per algebra one Engine and one Reducer, shared by all of the round's
    operations on it.  The algebras' operations are interleaved, so their
    four memos stay alive and grow together until the round ends."""
    from nlca import Engine, Reducer
    reps = 1 if size == "tiny" else IDENTITY_REPS
    shared = {}
    for name in PRESENTATIONS["identities_warm"]:
        engine = Engine(ctx[name])
        shared[name] = engine, Reducer(engine)
    ops = [(name, family, shape)
           for name in PRESENTATIONS["identities_warm"]
           for family in FAMILIES
           for shape in gen.shapes(gen.TENSOR_CAPS[name][0], reps)]
    rng.shuffle(ops)
    for name, family, shape in ops:
        engine, red = shared[name]
        run, check = identity_op(family, ctx[name], gen.GENERATORS[name],
                                 engine, red, rng, shape)
        yield "%s:%s" % (name, family), run, check


# -- reduce_deep -------------------------------------------------------------

def reduce_check(name, gens, mono):
    """Reference for one reduced word: PBW order and weight of every output
    monomial, exact value for the free fields, and idempotence."""
    w_in = weight(gens, mono)

    def check(res):
        red, out = res
        for m, s in out.terms.items():
            if not ordered(gens, m):
                return "output monomial not normally ordered"
            if weight(gens, m) != w_in:
                return "output monomial changes the weight"
        if name in ("free_boson", "free_fermion"):
            target, sign = sorted_with_sign(gens, mono)
            want = {target: sign} if sign else {}
            if {m: s for m, s in out.terms.items()} != want:
                return "free-field word does not reduce to its sorted word"
        if red.normal_order(out) != out:
            return "second reduction changes the output"
        return None
    return check


def reduce_deep_round(ctx, rng, size):
    """A fresh Engine and Reducer per word, as `nlca reduce` builds; one
    word per stratum of each algebra, in a seeded order."""
    from nlca import Engine, Reducer, parse_expression
    words = []
    for name in PRESENTATIONS["reduce_deep"]:
        lo, hi, max_t, strata = gen.WORD_SHAPES[name]
        for stratum in (strata[:1] if size == "tiny" else strata):
            words.append((name, gen.word(gen.GENERATORS[name], rng, lo, hi,
                                         max_t, stratum)))
    rng.shuffle(words)
    for name, w in words:
        pres, gens = ctx[name], gen.GENERATORS[name]
        text = gen.render_word([g[0] for g in gens], w)

        def run(pres=pres, text=text):
            red = Reducer(Engine(pres))
            return red, red.normal_order(parse_expression(pres, text))
        yield "%s:%d" % (name, len(w)), run, reduce_check(name, gens, w)


ROUNDS = {"cli_cold": cli_cold_round, "identities_warm": identities_warm_round,
          "reduce_deep": reduce_deep_round}


# -- host speed --------------------------------------------------------------

# The host's speed is not steady: on a 2-vCPU VM a fixed bit of work flips
# between two speeds, one twice the other, within milliseconds, and how
# much of a run falls in the fast one changes from run to run, so the raw
# CPU times of identical runs spread by more than an optimisation worth
# measuring.  So while operations run, a CPU-time timer interrupts the
# worker every SAMPLE_EVERY_S and times a small fixed probe (benchmark code
# only, so a change to nlca cannot move it); the probe's time is taken out
# of the operation's, and the operation's own CPU time is scaled by
# PROBE_REF_S over the mean probe time of the samples within SAMPLE_SPAN_S
# of it.  The reported times read as CPU time on a host where the probe
# takes PROBE_REF_S.  Times are read from the CPU clock of the worker's one
# thread: while a CPU-time timer is armed, Linux advances the process CPU
# clock only at scheduler ticks.
#
# The probe mixes what nlca spends its time on: Fraction arithmetic into a
# dict keyed by tuples, scattered lookups in a 20,000-entry table (about
# 5 MB of the worker's RSS), and sympy polynomial and rational arithmetic
# over QQ.  Timed between four kinds of nlca operation for five minutes on
# that VM, the operation's time over a seven times larger probe of this mix
# spread 2.5% (quartiles over median, 3 s windows) while the operation's own
# time spread 8%; over each part of the mix alone it spread 5-6%.
PROBE_REF_S = 0.00080
SAMPLE_EVERY_S = 0.02
SAMPLE_SPAN_S = 0.06
# an operation with fewer samples than this around it takes the nearest
SAMPLE_MIN = 5


class Probe:
    """The fixed probe and its data, drawn from a fixed seed."""

    def __init__(self):
        from sympy import QQ
        from sympy.polys.rings import ring
        rng = random.Random(0)
        _, c = ring("c", QQ)

        def frac():
            return Fraction(rng.randrange(1, 9), rng.randrange(1, 5))

        self.p = {(1, 4, 7): frac()}
        self.q = {tuple(sorted(rng.randrange(9) for _ in range(2))): frac()
                  for _ in range(25)}
        self.table = {(i % 613, i): [i, i + 1] for i in range(20000)}
        self.keys = [(i % 613, i)
                     for i in (rng.randrange(20000) for _ in range(110))]
        self.cpolys = [sum((QQ(frac()) * c**i for i in range(4)), c * 0)
                       for _ in range(2)]
        self.qs = [QQ(frac()) for _ in range(8)]

    def work(self):
        out = {}
        for m, a in self.p.items():
            for n, b in self.q.items():
                k = tuple(sorted(m + n))
                out[k] = out.get(k, 0) + a * b
        total = 0
        for k in self.keys:
            total += self.table[k][0]
        acc = self.cpolys[0] * 0
        for f in self.cpolys:
            for g in self.cpolys:
                acc += f * g
        s = self.qs[0] * 0
        for a in self.qs:
            for b in self.qs:
                s += a * b
        return out, total, acc, s

    def __call__(self):
        """CPU seconds of one run of the probe's work, with the cyclic
        garbage collector off, so that the size of the program's heap does
        not enter the probe."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        self.work()
        dt = time.thread_time() - t0
        if enabled:
            gc.enable()
        return dt


class Sampler:
    """Probe samples taken by a CPU-time timer (SIGPROF), each with the
    thread CPU time at which it was taken, and the CPU time they took."""

    def __init__(self, probe):
        self.probe = probe
        self.t, self.samples = [], []
        self.spent = 0.0
        self.busy = False

    def _sample(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        t = time.thread_time()
        dt = self.probe()
        self.t.append(t)
        self.samples.append(dt)
        self.spent += time.thread_time() - t
        self.busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, t0, t1):
        """PROBE_REF_S over the mean sample within SAMPLE_SPAN_S of the
        CPU interval [t0, t1], or of the SAMPLE_MIN samples nearest it."""
        lo = bisect.bisect_left(self.t, t0 - SAMPLE_SPAN_S)
        hi = bisect.bisect_right(self.t, t1 + SAMPLE_SPAN_S)
        if hi - lo < SAMPLE_MIN:
            mid = bisect.bisect_left(self.t, (t0 + t1) / 2)
            lo = max(0, min(mid - SAMPLE_MIN // 2,
                            len(self.t) - SAMPLE_MIN))
            hi = lo + SAMPLE_MIN
        return PROBE_REF_S / statistics.fmean(self.samples[lo:hi])


# -- run loop ----------------------------------------------------------------

def run_rounds(workload, ctx, seed, seconds, rounds, size, tracer):
    """Every operation as (round, label, CPU seconds, error): the raw list,
    and unless tracing, the list scaled to the host's speed."""
    ops, spans = [], []
    sampler = None if tracer is not None else Sampler(Probe())
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    if sampler is not None:
        sampler.start()
    r = 0
    while (r < rounds) if rounds else (
            r == 0 or time.perf_counter() - wall0 < seconds):
        rng = random.Random("%s:%s:%d" % (workload, seed, r))
        for label, run, check in ROUNDS[workload](ctx, rng, size):
            if tracer is not None:
                tracer.op_start()
            spent = sampler.spent if sampler is not None else 0.0
            t0 = time.thread_time()
            try:
                res = run()
                err = None
            except Exception as ex:  # any exception is a failed operation
                err = "%s: %s" % (type(ex).__name__, ex)
            t1 = time.thread_time()
            if tracer is not None:
                tracer.op_end()
            # the operation's own CPU, without the probes taken during it
            dt = t1 - t0 - ((sampler.spent - spent) if sampler else 0.0)
            if err is None:
                try:
                    err = check(res)
                except Exception as ex:
                    err = "check raised %s: %s" % (type(ex).__name__, ex)
            res = None
            ops.append((r, label, dt, err))
            spans.append((t0, t1))
        r += 1
    times = time.perf_counter() - wall0, time.thread_time() - cpu0
    if sampler is None:
        return ops, ops, None, r, times
    sampler.stop()
    scaled = [(r, label, dt * sampler.scale(t0, t1), err)
              for (r, label, dt, err), (t0, t1) in zip(ops, spans)]
    return scaled, ops, sampler, r, times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=0,
                    help="run exactly this many rounds (0: until --seconds)")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.process_time()
    import nlca
    import nlca.cli  # noqa: F401
    import_s = time.process_time() - t0
    src = (ROOT / "src").resolve()
    if Path(nlca.__file__).resolve().parent.parent != src:
        raise SystemExit("nlca imported from %s, not from %s"
                         % (nlca.__file__, src))
    ctx = {name: nlca.parse_path(table_path(name))
           for name in PRESENTATIONS[args.workload]}
    # process CPU since the interpreter started: start-up, imports, parsing
    setup_s = time.process_time()
    record = {"setup_s": setup_s, "import_s": import_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import layertrace
            tracer = layertrace.Tracer()
            tracer.install()
        ops, raw, sampler, rounds, (wall, cpu) = run_rounds(
            args.workload, ctx, args.seed, args.seconds, args.rounds,
            args.size, tracer)
        import sympy
        from sympy.external.gmpy import GROUND_TYPES
        record.update(
            ops=ops, rounds=rounds, wall_s=wall, cpu_s=cpu,
            op_cpu_s=sum(op[2] for op in raw),
            sympy=sympy.__version__, ground_types=GROUND_TYPES,
            threads=threading.active_count(),
            cache_limit=os.environ.get("NLCA_CACHE_LIMIT"))
        if sampler is not None:
            record.update(samples=len(sampler.samples),
                          sample_ms=[1e3 * q for q in statistics.quantiles(
                              sampler.samples, n=4)])
        if tracer is not None:
            record["layers"] = tracer.metrics(sum(op[2] for op in raw))
            tracer.write_spans(sys.stderr)
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))


if __name__ == "__main__":
    main()
