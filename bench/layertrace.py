"""Outside-in layer trace of the nlca modules.

`Tracer.install()` wraps, from outside the package, the public functions
and public methods (plus arithmetic operators) of every module under
`src/nlca`, and rebinds each wrapped function in every nlca namespace that
imported it.  Each wrapped call is a span: its CPU time, minus the spans it
directly encloses, is the self time of the module it belongs to.  Spans are
aggregated in memory by (function, caller) and written out when the run
ends.  Counters are read from the arguments and results of the calls, and
from `Engine.stats` and `Reducer.descent_checks` after every operation.

Tracing is live only between `op_start()` and `op_end()`, so input
generation and reference checks stay out of the counts.
"""

import importlib
import inspect
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("scalars", "algebra", "formal", "calculus", "pbw", "verify",
          "ansatz", "frontend", "cli")

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")
SCALAR_BINOPS = tuple(op for op in OPERATORS if op not in ("__neg__",
                                                           "__pow__"))

# O(1) reads of generator metadata, called millions of times by basis
# enumeration and normal ordering: a span around each would cost several
# times the call, so they count towards their caller's self time.
UNWRAPPED = {"rgen_degree", "rgen_parity", "rgen_weight", "rgen_key",
             "mono_degree", "mono_parity", "mono_weight", "parity_sign"}

# function -> metric holding its inclusive CPU time
INCLUSIVE = {
    "scalars.nullspace": "scalars.nullspace_s",
    "pbw.enumerate_basis": "pbw.enumerate_s",
    "verify.check_jacobi": "verify.jacobi_s",
    "ansatz.extract_system": "ansatz.extract_s",
}

clock = time.process_time_ns


class Tracer:
    def __init__(self):
        self.off = True
        self.stack = []            # [function name, CPU ns of direct children]
        self.self_ns = Counter()   # layer -> self CPU ns
        self.incl_ns = Counter()   # function -> inclusive CPU ns
        # (function, caller) -> calls, CPU ns, self CPU ns
        self.spans = defaultdict(lambda: [0, 0, 0])
        self.count = Counter()
        self._engines = []         # [Engine.stats, snapshot at op start]
        self._reducers = []        # [reducer or weakref, snapshot at op start]

    # -- operation boundaries ------------------------------------------------

    def op_start(self):
        for entry in self._engines:
            entry[1] = dict(entry[0])
        for entry in self._reducers:
            r = entry[0]() if isinstance(entry[0], weakref.ref) else entry[0]
            entry[1] = r.descent_checks if r is not None else 0
        self.off = False

    def op_end(self):
        self.off = True
        for stats, base in self._engines:
            for k, v in stats.items():
                self.count["calculus." + k] += v - base.get(k, 0)
        live = []
        for ref, base in self._reducers:
            r = ref() if isinstance(ref, weakref.ref) else ref
            if r is not None:
                self.count["pbw.descent_checks"] += r.descent_checks - base
                # reducers built during the operation are held only until it
                # ends, so their counts are read before they are freed
                live.append([weakref.ref(r), r.descent_checks])
        self._reducers[:] = live

    # -- wrapping ------------------------------------------------------------

    def _span(self, fn, name, layer, probe):
        tracer = self
        incl = INCLUSIVE.get(name)

        def wrapper(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            stack = tracer.stack
            caller = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                tracer.self_ns[layer] += own
                span = tracer.spans[(name, caller)]
                span[0] += 1
                span[1] += dt
                span[2] += own
                if incl is not None:
                    tracer.incl_ns[incl] += dt
            if probe is not None:
                probe(tracer.count, args, kwargs, res)
            return res
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _register(fn, record):
        """Wrap __init__ so that `record` sees every new instance."""
        def init(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            record(obj)
        init.__wrapped__ = fn
        return init

    def install(self):
        """Wrap every public function and method of the nlca modules."""
        mods = {layer: importlib.import_module("nlca." + layer)
                for layer in LAYERS}
        namespaces = list(mods.values()) + [importlib.import_module("nlca")]
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = "%s.%s" % (layer, attr)
                    replaced[obj] = self._span(obj, name, layer,
                                               PROBES.get(name))
                elif (inspect.isclass(obj) and not attr.startswith("_")
                      and not issubclass(obj, Exception)):
                    self._wrap_class(layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(ns, attr, replaced[obj])

    def _wrap_class(self, layer, cls):
        from nlca.calculus import Engine
        from nlca.pbw import Reducer
        for attr, val in list(vars(cls).items()):
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if attr == "__init__" and cls is Engine:
                setattr(cls, attr, self._register(
                    val, lambda e: self._engines.append([e.stats, {}])))
            elif attr == "__init__" and cls is Reducer:
                setattr(cls, attr, self._register(
                    val, lambda r: self._reducers.append([r, 0])))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._span(
                    val.__func__, name, layer, PROBES.get(name))))
            elif inspect.isfunction(val) and attr not in UNWRAPPED and (
                    not attr.startswith("_") or attr in OPERATORS):
                setattr(cls, attr, self._span(val, name, layer,
                                              PROBES.get(name)))

    # -- results -------------------------------------------------------------

    def metrics(self, op_cpu_s):
        """Per-layer metrics, `op_cpu_s` being the traced operations' CPU."""
        c = self.count
        binops = c["scalars.binops"]

        def share(n, d):
            return n / d if d else 0.0
        out = {
            "scalars.binop_calls": binops,
            "scalars.qq_share": share(c["scalars.qq"], binops),
            "scalars.ratfunc_share": share(c["scalars.ratfunc"], binops),
            "scalars.self_share": share(self.self_ns["scalars"] / 1e9,
                                        op_cpu_s),
            "scalars.nullspace_rows": c["scalars.nullspace_rows"],
            "scalars.nullspace_rank": c["scalars.nullspace_rank"],
            "algebra.tpoly_add_calls": c["algebra.tpoly_add_calls"],
            "algebra.terms_copied": c["algebra.terms_copied"],
            "algebra.scale_calls": c["algebra.scale_calls"],
            "algebra.apply_T_calls": c["algebra.apply_T_calls"],
            "formal.lpoly_ops": sum(
                n for (name, _), (n, _, _) in self.spans.items()
                if name.startswith("formal.LPoly.")),
            "calculus.n_calls": c["calculus.n_calls"],
            "calculus.p_calls": c["calculus.p_calls"],
            "calculus.n_hit_ratio": share(c["calculus.n_hits"],
                                          c["calculus.n_calls"]),
            "calculus.p_hit_ratio": share(c["calculus.p_hits"],
                                          c["calculus.p_calls"]),
            "calculus.jacobiator_terms": c["calculus.jacobiator_terms"],
            "pbw.normal_order_calls": c["pbw.normal_order_calls"],
            "pbw.descent_checks": c["pbw.descent_checks"],
            "pbw.out_terms": c["pbw.out_terms"],
            "pbw.basis_monos": c["pbw.basis_monos"],
            "verify.triples": c["verify.triples"],
            "ansatz.system_rows": c["ansatz.system_rows"],
            "frontend.parse_calls": c["frontend.parse_calls"],
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_ns[layer] / 1e9
        for metric in INCLUSIVE.values():
            out[metric] = self.incl_ns[metric] / 1e9
        return out

    def write_spans(self, fh, top=30):
        """The aggregated spans, by self time."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        fh.write("%-40s %-40s %10s %10s %10s\n"
                 % ("span", "caller", "calls", "total_s", "self_s"))
        for (name, caller), (n, total, own) in rows[:top]:
            fh.write("%-40s %-40s %10d %10.3f %10.3f\n"
                     % (name, caller or "-", n, total / 1e9, own / 1e9))


# -- probes: counters read from a call's arguments and result -----------------

def _scalar_binop(count, args, kwargs, res):
    count["scalars.binops"] += 1
    q, ratfunc = True, False
    for x in args:
        raw = getattr(x, "raw", None)
        if raw is None:
            continue  # int or Fraction operand
        if not raw.denom.is_ground:
            ratfunc = True
            q = False
        elif not raw.numer.is_ground:
            q = False
    count["scalars.qq"] += q
    count["scalars.ratfunc"] += ratfunc


def _nullspace(count, args, kwargs, res):
    system = args[0]
    count["scalars.nullspace_rows"] += len(system.rows)
    count["scalars.nullspace_rank"] += len(system.unknowns) - len(res)


def _tpoly_add(count, args, kwargs, res):
    count["algebra.tpoly_add_calls"] += 1
    count["algebra.terms_copied"] += len(args[0].terms) + len(args[1].terms)


def _counter(metric):
    def probe(count, args, kwargs, res):
        count[metric] += 1
    return probe


def _jacobiator(count, args, kwargs, res):
    count["calculus.jacobiator_terms"] += sum(
        len(X.terms) for X in res.terms.values())


def _normal_order(count, args, kwargs, res):
    count["pbw.normal_order_calls"] += 1
    count["pbw.out_terms"] += len(res.terms)


def _enumerate(count, args, kwargs, res):
    count["pbw.basis_monos"] += len(res)


def _check_jacobi(count, args, kwargs, res):
    triples = args[3] if len(args) > 3 else kwargs.get("triples")
    count["verify.triples"] += (len(args[0].generators) ** 3
                                if triples is None else len(triples))


def _extract(count, args, kwargs, res):
    count["ansatz.system_rows"] += len(res.rows)


PROBES = {
    **{"scalars.Scalar." + op: _scalar_binop for op in SCALAR_BINOPS},
    "scalars.nullspace": _nullspace,
    "algebra.TPoly.__add__": _tpoly_add,
    "algebra.TPoly.scale": _counter("algebra.scale_calls"),
    "algebra.apply_T": _counter("algebra.apply_T_calls"),
    "calculus.Engine.jacobiator": _jacobiator,
    "pbw.Reducer.normal_order": _normal_order,
    "pbw.enumerate_basis": _enumerate,
    "verify.check_jacobi": _check_jacobi,
    "ansatz.extract_system": _extract,
    "frontend.parse_source": _counter("frontend.parse_calls"),
    "frontend.parse_expression": _counter("frontend.parse_calls"),
}
