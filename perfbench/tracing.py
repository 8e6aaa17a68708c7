"""Span tracing of the stokesgreen layers, installed from outside the package.

The traced run replaces module-level functions, by identity, in every loaded
``stokesgreen`` module that holds them, and replaces methods on their
classes, so each layer call is wrapped in a span wherever it is called from.
The operator's ``K`` and the linear operator returned by ``preconditioner()``
are wrapped per instance, which counts K applications and preconditioner
applications in one unit for every Krylov method.  Spans are kept in memory
and written out once, when the run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import weakref

import numpy as np
import scipy.sparse.linalg as spla

# span record fields
NAME, START, END, PARENT, PHASE, INFO = range(6)


def patch_everywhere(original, replacement):
    """Replace ``original`` by ``replacement`` in every loaded stokesgreen module."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "stokesgreen" or modname.startswith("stokesgreen.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class _TracedOperator(spla.LinearOperator):
    """A linear operator whose every application is one span."""

    def __init__(self, inner, tracer, name):
        super().__init__(dtype=np.dtype(float), shape=inner.shape)
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def _matvec(self, x):
        rec = self._tracer.open(self._name)
        try:
            return self._inner.dot(x)
        finally:
            self._tracer.close(rec)


class Tracer:
    """In-memory spans: name, start, end, parent span, phase, extra info."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.enabled = True
        self.operators = []  # per assembled operator: K nnz, bytes per matvec, DCT flops
        self._stack = []
        self._built = weakref.WeakSet()

    def open(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
               self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, info=None):
        """``fn`` wrapped in a span; ``info(args, kwargs, result)`` fills its info."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        import stokesgreen.cli as cli
        import stokesgreen.coefficients as coefficients
        import stokesgreen.domain as domain
        import stokesgreen.green as green
        import stokesgreen.system as system

        def trace_function(module, fname, layer, info=None):
            original = getattr(module, fname)
            patch_everywhere(original, self.wrap(layer, original, info))

        for fname in ("build_domain", "build_box", "build_l_shape"):
            trace_function(domain, fname, "domain.build")
        for fname in ("build_coefficients", "constant_identity", "constant_field",
                      "checkerboard", "validate_ellipticity", "adjoint_field"):
            trace_function(coefficients, fname, "coefficients.build")
        trace_function(system, "grid_operators", "system.grid")
        trace_function(system, "solve_conormal", "system.krylov",
                       lambda args, kwargs, out: (out[1].iterations, out[1].residual))
        trace_function(system, "solve_divergence", "system.divergence",
                       lambda args, kwargs, out: (
                           out.sweeps, out.div_residual,
                           _l2(args[0], args[1] if len(args) > 1 else kwargs["g"])))
        trace_function(green, "compute_green", "green.pair")
        trace_function(green, "compute_adjoint_green", "green.adjoint_pair")
        for fname in ("symmetry_check", "averaging_identity_check", "check_green_invariants"):
            trace_function(green, fname, "green.checks")

        op_cls = system.ConormalOperator
        op_cls.__init__ = self.wrap("system.assemble", op_cls.__init__,
                                    lambda args, kwargs, out: self._instrument(args[0]))
        original_prec = op_cls.preconditioner
        tracer = self

        def preconditioner(op):
            if not tracer.enabled or op in tracer._built:
                return original_prec(op)
            tracer._built.add(op)
            rec = tracer.open("system.prec.build")
            try:
                return original_prec(op)
            finally:
                tracer.close(rec)

        op_cls.preconditioner = preconditioner

        pipe_cls = cli.Pipeline
        pipe_cls.build = self.wrap("cli.build", pipe_cls.build)
        pipe_cls.run_estimate = self.wrap("estimates", pipe_cls.run_estimate)
        pipe_cls.export_artifacts = self.wrap("cli.export", pipe_cls.export_artifacts)
        pipe_cls.finalize = self.wrap("cli.export", pipe_cls.finalize)

    def _instrument(self, op):
        """Count K and preconditioner applications of one assembled operator."""
        K = op.K
        op.K = _TracedOperator(K, self, "system.matvec")
        get_prec = op.preconditioner
        op.preconditioner = lambda: _TracedOperator(get_prec(), self, "system.prec.apply")
        n = K.shape[0]
        self.operators.append({
            "K_nnz": int(K.nnz),
            # CSR arrays read once plus the input and output vectors
            "matvec_bytes": int(K.data.nbytes + K.indices.nbytes + K.indptr.nbytes + 2 * 8 * n),
            "dct_flops": _dct_flops(op.domain),
        })

    # -- output --------------------------------------------------------------

    def write(self, path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "phase", "info"],
            "spans": self.spans,
        }))


def _l2(domain, values):
    return float(np.sqrt(domain.h**3 * np.sum(np.asarray(values, dtype=float) ** 2)))


def _dct_flops(domain):
    """Computed flops of one block preconditioner apply on a full box, else 0.

    Counts a 3-D DCT-II or its inverse on N cells as 2.5 N log2 N flops (the
    usual real-FFT count), so one scalar solve is two transforms plus N
    divisions; three velocity components, then one scaling per pressure
    cell and Lagrange multiplier.
    """
    if not domain.mask.all():
        return 0
    n = int(np.prod(domain.shape))
    scalar = 2 * 2.5 * n * np.log2(n) + n
    return int(round(3 * scalar + domain.ncells + 3))


def span_overhead_s(samples=20000):
    """Measured cost of one traced call over a plain call, in seconds."""
    probe = Tracer()
    plain = lambda: None  # noqa: E731
    traced = probe.wrap("probe", plain)
    t0 = time.perf_counter()
    for _ in range(samples):
        plain()
    t1 = time.perf_counter()
    for _ in range(samples):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / samples


# -- per-layer metrics ---------------------------------------------------------


def _median(values, default=0.0):
    return float(statistics.median(values)) if values else default


def layer_metrics(tracer, setup_reps, passes, export_bytes, seconds_per_span):
    """Per-layer numbers from the spans of the set-up repetitions and passes.

    Set-up layers are medians over set-up repetitions; run layers are medians
    over passes, or over calls where the name says per call or per column.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
            children[s[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def nested_in_same(i):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == spans[i][NAME]:
                return True
            p = spans[p][PARENT]
        return False

    def top(name, phase):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and s[PHASE] == phase and not nested_in_same(i)]

    def total(name, phase):
        return sum(dur(i) for i in top(name, phase))

    def per_setup(fn):
        return _median([fn(("setup", r)) for r in range(setup_reps)])

    def per_pass(fn):
        return _median([fn(("run", k)) for k in range(passes)])

    run_phases = {("run", k) for k in range(passes)}

    def run_spans(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name and s[PHASE] in run_phases]

    def assemble_self(phase):
        return sum(dur(i) - sum(dur(c) for c in children[i] if spans[c][NAME] == "system.grid")
                   for i in top("system.assemble", phase))

    # spans of calls that raised carry no info
    solves = [i for i in run_spans("system.krylov") if spans[i][INFO]]
    solve_time = sum(dur(i) for i in solves)

    def child_stats(name):
        counts, time_in = [], 0.0
        for i in solves:
            kids = [c for c in children[i] if spans[c][NAME] == name]
            counts.append(len(kids))
            time_in += sum(dur(c) for c in kids)
        return counts, time_in

    matvec_counts, matvec_time = child_stats("system.matvec")
    prec_counts, prec_time = child_stats("system.prec.apply")
    divergence = [i for i in run_spans("system.divergence") if spans[i][INFO]]
    ops = tracer.operators
    biggest = max(ops, key=lambda o: o["K_nnz"]) if ops else {}
    pass_spans = [sum(1 for s in spans if s[PHASE] == ("run", k)) for k in range(passes)]

    metrics = {
        "domain.build_s": (per_setup(lambda ph: total("domain.build", ph)), "s"),
        "coefficients.build_s": (per_setup(lambda ph: total("coefficients.build", ph)), "s"),
        "cli.build_s": (per_setup(lambda ph: total("cli.build", ph)), "s"),
        "system.grid_s": (per_setup(lambda ph: total("system.grid", ph)), "s"),
        "system.assemble_s": (per_setup(assemble_self), "s"),
        "system.K_nnz": (biggest.get("K_nnz", 0), "count"),
        "system.prec.build_s": (per_setup(lambda ph: total("system.prec.build", ph)), "s"),
        "system.prec.apply_ms": (1e3 * _median([dur(i) for i in run_spans("system.prec.apply")]), "ms"),
        "system.prec.applies": (_median(prec_counts), "count"),
        "system.prec.dct_flops": (biggest.get("dct_flops", 0), "count"),
        "system.matvec_ms": (1e3 * _median([dur(i) for i in run_spans("system.matvec")]), "ms"),
        "system.matvecs": (_median(matvec_counts), "count"),
        "system.matvec.bytes": (biggest.get("matvec_bytes", 0), "bytes"),
        "system.krylov.solve_s": (_median([dur(i) for i in solves]), "s"),
        "system.krylov.iterations_reported": (_median([spans[i][INFO][0] for i in solves]), "count"),
        "system.krylov.prec_share": (prec_time / solve_time if solve_time else 0.0, "ratio"),
        "system.krylov.matvec_share": (matvec_time / solve_time if solve_time else 0.0, "ratio"),
        "system.krylov.residual": (max((spans[i][INFO][1] for i in solves), default=0.0), "ratio"),
        "system.divergence_s": (per_pass(lambda ph: total("system.divergence", ph)), "s"),
        "system.divergence.sweeps": (_median([spans[i][INFO][0] for i in divergence]), "count"),
        "system.divergence.rel_residual": (
            _median([spans[i][INFO][1] / spans[i][INFO][2] for i in divergence]), "ratio"),
        "green.pair.self_s": (_median([dur(i) - child_time[i] for i in run_spans("green.pair")]), "s"),
        "green.adjoint_pair_s": (_median([dur(i) for i in run_spans("green.adjoint_pair")]), "s"),
        "green.checks_s": (per_pass(lambda ph: total("green.checks", ph)), "s"),
        "estimates.self_s": (per_pass(lambda ph: sum(dur(i) - child_time[i]
                                                     for i in top("estimates", ph))), "s"),
        "estimates.count": (per_pass(lambda ph: len(top("estimates", ph))), "count"),
        "cli.export_s": (per_pass(lambda ph: total("cli.export", ph)), "s"),
        "cli.export_bytes": (export_bytes, "bytes"),
        "trace.spans": (_median(pass_spans), "count"),
        "trace.overhead_s": (_median(pass_spans) * seconds_per_span, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
