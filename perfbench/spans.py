"""Layer tracing of ``spincheck`` from outside the package.

``Tracer.install`` wraps the public functions and methods of every library
module (``scalar``, ``linalg``, ``clifford``, ``weights``, ``qspin``,
``invariant``, ``report``) and rebinds each wrapper under every module name
that refers to the original, so a function imported by name elsewhere
(``invariant.tensor_action``, ``invariant.kernel_basis``, ...) is traced too.
Class-body aliases such as ``Scalar.__radd__ = __add__`` are separate class
attributes and get their own wrapper.  ``Tracer.uninstall`` puts every
original back.

Every wrapped call belongs to one bucket (``BUCKETS``, else
``<layer>.other``).  A call's self time is its duration minus the duration of
the wrapped calls it makes and of garbage collections that ran inside it.
Coarse entry points (``SPAN_FUNCS``) open a span of their own; every other
call is added to a per-bucket count/time aggregate of the innermost open
span, which keeps the cost of the hot arithmetic (millions of calls) to a
counter update.  Spans stay in memory and are written once, by ``dump``.

Some calls also update counters after the timed interval (``_hooks``); that
time, like the benchmark's own code, is reported as unattributed, so

    sum of layer self times + py.gc.self_s + trace.unattributed_s = wall.
"""

from __future__ import annotations

import gc
import json
import time
import types
from pathlib import Path
from typing import Any, Callable

LAYERS = ("scalar", "linalg", "clifford", "weights", "qspin", "invariant",
          "report")

# operator dunders that are wrapped where a class body defines them
_OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__"})

# Not wrapped: their time belongs to the bucket of their caller.
#   RowReducer.reduce  - only RowReducer.add_row calls it
#   vec_sub_scaled     - the elimination step of the reducer, the span
#                        solver and kernel_basis alike
#   VerificationReport.record / .add - run the suite's own check closures
_SKIP = frozenset({
    "linalg:RowReducer.reduce", "linalg:vec_sub_scaled",
    "report:VerificationReport.record", "report:VerificationReport.add"})

BUCKETS = {
    **dict.fromkeys(["scalar:Scalar.__add__", "scalar:Scalar.__radd__",
                     "scalar:Scalar.__sub__", "scalar:Scalar.__rsub__"],
                    "scalar.add"),
    **dict.fromkeys(["scalar:Scalar.__mul__", "scalar:Scalar.__rmul__",
                     "scalar:Scalar.__truediv__", "scalar:Scalar.__rtruediv__",
                     "scalar:Scalar.inverse", "scalar:Scalar.__pow__"],
                    "scalar.mul"),
    **dict.fromkeys(["scalar:Ext.__add__", "scalar:Ext.__radd__",
                     "scalar:Ext.__sub__", "scalar:Ext.__rsub__",
                     "scalar:Ext.__neg__"], "scalar.ext.add"),
    **dict.fromkeys(["scalar:Ext.__mul__", "scalar:Ext.__rmul__",
                     "scalar:Ext.__truediv__", "scalar:Ext.__rtruediv__"],
                    "scalar.ext.mul"),
    "scalar:Ext.inverse": "scalar.ext.inverse",
    "scalar:eval_scalar": "scalar.eval",
    "scalar:eval_at_one": "scalar.eval",
    "linalg:SparseMat.__mul__": "linalg.matmul",
    **dict.fromkeys(["linalg:SparseMat.__add__", "linalg:SparseMat.__sub__",
                     "linalg:SparseMat.__neg__", "linalg:SparseMat.__rmul__",
                     "linalg:SparseMat.scale", "linalg:SparseMat.map_values"],
                    "linalg.elementwise"),
    "linalg:RowReducer.add_row": "linalg.rowreduce",
    "linalg:SpanSolver.add": "linalg.span",
    "linalg:SpanSolver.express": "linalg.span",
    "linalg:kernel_basis": "linalg.kernel",
    "qspin:tensor_action": "qspin.tensor_action",
    "qspin:spin_rep": "qspin.spin_rep",
    "qspin:verify_serre": "qspin.serre",
    "invariant:build_c_even": "invariant.build_c",
    "invariant:build_c_odd": "invariant.build_c",
    "invariant:csq_block_matrix": "invariant.build_c",
    "invariant:embed_pair_operator": "invariant.embed",
    "invariant:embed_ci": "invariant.embed",
    "invariant:spectrum_check": "invariant.spectrum",
    "invariant:lagrange_projections": "invariant.spectrum",
    "invariant:generated_algebra_dim": "invariant.duality.gen",
    "invariant:commutant_dim_oracle": "invariant.duality.oracle",
    "invariant:verify_coideal": "invariant.coideal",
    "invariant:third_power_profile": "invariant.third_power",
    "invariant:markov_property_check": "invariant.markov",
    "invariant:verify_commutation": "invariant.commute",
    "weights:bratteli": "weights.bratteli",
    "weights:qdimension": "weights.qdim",
    "weights:qtrace": "weights.qtrace",
    "clifford:cl_mul": "clifford.cl_mul",
    "report:Check.as_json": "report.as_json",
    "report:VerificationReport.as_json": "report.as_json",
}

SPAN_FUNCS = frozenset({
    "clifford:verify_so_relations", "clifford:commuting_family_check",
    "clifford:classical_spectrum_check", "qspin:verify_serre",
    "qspin:spin_rep", "qspin:tensor_action", "linalg:kernel_basis",
    "weights:bratteli", "invariant:build_c_even", "invariant:build_c_odd",
    "invariant:csq_block_matrix", "invariant:verify_commutation",
    "invariant:spectrum_check", "invariant:lagrange_projections",
    "invariant:verify_coideal", "invariant:verify_duality",
    "invariant:generated_algebra_dim", "invariant:commutant_dim_oracle",
    "invariant:third_power_profile", "invariant:markov_property_check"})

# Aggregate record: [calls, self_s, extra_a, extra_b]; hooks fill the extras.
_CALLS, _SELF, _XA, _XB = range(4)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("scalar.add.calls", "count", "lower"),
    ("scalar.add.self_s", "s", "lower"),
    ("scalar.mul.calls", "count", "lower"),
    ("scalar.mul.self_s", "s", "lower"),
    ("scalar.laurent_frac", "frac", "higher"),
    ("scalar.ext.add.calls", "count", "lower"),
    ("scalar.ext.add.self_s", "s", "lower"),
    ("scalar.ext.mul.calls", "count", "lower"),
    ("scalar.ext.mul.self_s", "s", "lower"),
    ("scalar.ext.inverse.calls", "count", "lower"),
    ("scalar.ext.inverse.self_s", "s", "lower"),
    ("scalar.eval.calls", "count", "lower"),
    ("scalar.eval.self_s", "s", "lower"),
    ("scalar.self_s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.self_s", "s", "lower"),
    ("linalg.matmul.mults", "count", "lower"),
    ("linalg.matmul.out_nnz", "count", "lower"),
    ("linalg.elementwise.self_s", "s", "lower"),
    ("linalg.rowreduce.rows", "count", "lower"),
    ("linalg.rowreduce.accept_frac", "frac", "higher"),
    ("linalg.rowreduce.self_s", "s", "lower"),
    ("linalg.span.self_s", "s", "lower"),
    ("linalg.kernel.self_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("qspin.tensor_action.calls", "count", "lower"),
    ("qspin.tensor_action.self_s", "s", "lower"),
    ("qspin.spin_rep.self_s", "s", "lower"),
    ("qspin.serre.self_s", "s", "lower"),
    ("qspin.self_s", "s", "lower"),
    ("invariant.build_c.self_s", "s", "lower"),
    ("invariant.embed.self_s", "s", "lower"),
    ("invariant.spectrum.self_s", "s", "lower"),
    ("invariant.duality.gen.self_s", "s", "lower"),
    ("invariant.duality.oracle.self_s", "s", "lower"),
    ("invariant.coideal.self_s", "s", "lower"),
    ("invariant.third_power.self_s", "s", "lower"),
    ("invariant.markov.self_s", "s", "lower"),
    ("invariant.commute.self_s", "s", "lower"),
    ("invariant.self_s", "s", "lower"),
    ("weights.bratteli.self_s", "s", "lower"),
    ("weights.qdim.calls", "count", "lower"),
    ("weights.qdim.self_s", "s", "lower"),
    ("weights.qtrace.calls", "count", "lower"),
    ("weights.qtrace.self_s", "s", "lower"),
    ("weights.self_s", "s", "lower"),
    ("clifford.cl_mul.calls", "count", "lower"),
    ("clifford.self_s", "s", "lower"),
    ("report.as_json.self_s", "s", "lower"),
    ("report.self_s", "s", "lower"),
    ("py.gc.self_s", "s", "lower"),
    ("py.gc.collections", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


def _hooks(sc) -> dict[str, Callable]:
    Scalar, SparseMat = sc.scalar.Scalar, sc.linalg.SparseMat
    laurent_den = dict(sc.scalar.ONE._den)

    def scalar_result(rec, args, res):
        # extra_a: Scalar results, extra_b: those with denominator 1
        if type(res) is Scalar:
            rec[_XA] += 1
            if res._den == laurent_den:
                rec[_XB] += 1

    def matmul(rec, args, res):
        # extra_a: entry products the operand sparsity implies, extra_b: nnz
        if type(res) is SparseMat:
            a, b = args
            brows = b.rows
            rec[_XA] += sum(len(brows.get(k, ())) for row in a.rows.values()
                            for k in row)
            rec[_XB] += sum(len(row) for row in res.rows.values())

    def add_row(rec, args, res):
        if res:
            rec[_XA] += 1       # accepted rows

    return {"scalar.add": scalar_result, "scalar.mul": scalar_result,
            "linalg.matmul": matmul, "linalg.rowreduce": add_row}


def _bucket(key: str) -> str:
    return BUCKETS.get(key) or key.split(":", 1)[0] + ".other"


class Tracer:
    """Wraps the library, traces one call, and reports per-layer metrics.

    Use as ``install()``, then ``run(fn)`` (with ``job(...)`` inside ``fn``),
    then ``uninstall()``; the cycle may repeat, and the totals add up.
    """

    def __init__(self, sc):
        self._sc = sc
        self._patched: list[tuple[Any, str, Any]] = []
        self._hooks = _hooks(sc)
        # the wrappers hold these lists, so they are cleared, never replaced
        self._frames: list[list[float]] = []       # [child_s] per open call
        self._aggs: list[dict[str, list]] = []     # per open span
        self._span_ids: list[int] = []
        self._gc_s = [0.0]
        self.spans: list[tuple] = []
        self._next_id = 0
        self._gc_n = 0
        self._gc_t0 = 0.0
        self._hook_s = 0.0
        self.wall_s = 0.0

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, fn: Callable, key: str, label: str) -> Callable:
        bucket = _bucket(key)
        if key in SPAN_FUNCS:
            def span(*args, **kwargs):
                return self._span(bucket, label, fn, args, kwargs)
            return span

        frames, aggs, gcs = self._frames, self._aggs, self._gc_s
        perf = time.perf_counter
        hook = self._hooks.get(bucket)
        tracer = self

        def leaf(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            ok = False
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
                ok = True
                return res
            finally:
                t1 = perf()
                g1 = gcs[0]
                frames.pop()
                agg = aggs[-1]
                rec = agg.get(bucket)
                if rec is None:
                    rec = agg[bucket] = [0, 0.0, 0, 0]
                rec[_CALLS] += 1
                rec[_SELF] += (t1 - t0) - frame[0]
                if hook is not None and ok:
                    hook(rec, args, res)
                tracer._close(t0, t1, g1)

        return leaf

    def _close(self, t0: float, t1: float, g1: float) -> None:
        """Charge a finished call to its caller.  Bookkeeping after ``t1`` is
        hook time; a collection that ran after ``t1`` was already charged to
        the caller by ``_on_gc``."""
        t2 = time.perf_counter()
        gc_after = self._gc_s[0] - g1
        self._hook_s += (t2 - t1) - gc_after
        self._frames[-1][0] += (t2 - t0) - gc_after

    def _span(self, bucket, label, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        frame = [0.0]
        agg: dict[str, list] = {}
        self._frames.append(frame)
        self._aggs.append(agg)
        parent = self._span_ids[-1]
        self._span_ids.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            g1 = self._gc_s[0]
            self._span_ids.pop()
            self._aggs.pop()
            self._frames.pop()
            self.spans.append((sid, parent, bucket, label, t0, t1,
                               (t1 - t0) - frame[0], agg))
            self._close(t0, t1, g1)

    def _patch(self, target, name: str, value) -> None:
        self._patched.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def install(self) -> None:
        """Wrap every traced function and rebind it everywhere it is named."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = getattr(self._sc, layer)
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType):
                    key = f"{layer}:{name}"
                    if (not name.startswith("_") and key not in _SKIP
                            and obj.__module__ == mod.__name__):
                        wrapped[id(obj)] = self._wrapper(obj, key, name)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, mod.__file__)
        # rebind module-level names, including names imported from elsewhere
        for mod in vars(self._sc).values():
            if isinstance(mod, types.ModuleType):
                for name, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                        self._patch(mod, name, wrapped[id(obj)])

    def _wrap_class(self, cls: type, layer: str, src: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            # dataclass-generated methods have no source file of their own
            if (not isinstance(fn, types.FunctionType)
                    or fn.__code__.co_filename != src):
                continue
            key = f"{layer}:{cls.__name__}.{name}"
            if key in _SKIP:
                continue
            w = self._wrapper(fn, key, f"{cls.__name__}.{name}")
            self._patch(cls, name, staticmethod(w) if static else w)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    # -- running ------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        dt = time.perf_counter() - self._gc_t0
        self._gc_s[0] += dt
        self._gc_n += 1
        self._frames[-1][0] += dt

    def run(self, fn: Callable[[], Any]) -> Any:
        """Trace one call of ``fn`` as a root span.  ``wall_s`` and every
        total add up over all the calls traced so far."""
        sid = self._next_id
        self._next_id += 1
        root = [0.0]
        self._frames.append(root)
        self._aggs.append({})
        self._span_ids.append(sid)
        gc.callbacks.append(self._on_gc)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            gc.callbacks.remove(self._on_gc)
            self.wall_s += t1 - t0
            self.spans.append((sid, None, "bench", "run", t0, t1,
                               (t1 - t0) - root[0], self._aggs.pop()))
            self._frames.pop()
            self._span_ids.pop()

    def job(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark job as a span whose self time is unattributed."""
        return self._span("bench", f"job:{name}", fn, (), {})

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Bucket -> [calls, self_s, extra_a, extra_b] over the traced call."""
        out: dict[str, list] = {}
        for _, _, bucket, _, _, _, self_s, agg in self.spans:
            rec = out.setdefault(bucket, [0, 0.0, 0, 0])
            rec[_CALLS] += 1
            rec[_SELF] += self_s
            for b, r in agg.items():
                acc = out.setdefault(b, [0, 0.0, 0, 0])
                for i in range(4):
                    acc[i] += r[i]
        return out

    def metrics(self, untraced_wall_s: float) -> dict[str, float]:
        """Every ``PER_LAYER`` metric; raises if the self times do not add
        up to the traced wall time."""
        tot = self.totals()
        zero = [0, 0.0, 0, 0]

        def calls(b):
            return tot.get(b, zero)[_CALLS]

        def self_s(prefix):
            return sum(r[_SELF] for b, r in tot.items()
                       if b == prefix or b.startswith(prefix + "."))

        layer_s = {layer: self_s(layer) for layer in LAYERS}
        unattributed = self_s("bench") + self._hook_s
        gap = self.wall_s - (sum(layer_s.values()) + self._gc_s[0]
                             + unattributed)
        if abs(gap) > 1e-6 * max(1.0, self.wall_s):
            raise AssertionError(f"self times miss the wall time by {gap} s")

        sca = [tot.get(b, zero) for b in ("scalar.add", "scalar.mul")]
        results = sum(r[_XA] for r in sca)
        red = tot.get("linalg.rowreduce", zero)
        mm = tot.get("linalg.matmul", zero)
        out: dict[str, float] = {}
        for name, unit, _ in PER_LAYER:
            stem = name.rsplit(".", 1)[0]
            if name.endswith(".calls"):
                out[name] = calls(stem)
            elif name.endswith(".self_s") and stem in layer_s:
                out[name] = layer_s[stem]
            elif name.endswith(".self_s") and stem != "py.gc":
                out[name] = self_s(stem)
        out.update({
            "scalar.laurent_frac":
                sum(r[_XB] for r in sca) / results if results else 0.0,
            "linalg.matmul.mults": mm[_XA],
            "linalg.matmul.out_nnz": mm[_XB],
            "linalg.rowreduce.rows": red[_CALLS],
            "linalg.rowreduce.accept_frac":
                red[_XA] / red[_CALLS] if red[_CALLS] else 0.0,
            "py.gc.self_s": self._gc_s[0],
            "py.gc.collections": self._gc_n,
            "trace.wall_s": self.wall_s,
            "trace.overhead_frac": self.wall_s / untraced_wall_s - 1,
            "trace.unattributed_s": unattributed,
        })
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span as JSON, times relative to the first ``run``:
        [id, parent, bucket, label, start_s, end_s, self_s, aggs]."""
        base = min((span[4] for span in self.spans), default=0.0)
        rows = [[sid, parent, bucket, label, t0 - base, t1 - base, self_s, agg]
                for sid, parent, bucket, label, t0, t1, self_s, agg
                in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": rows}))
