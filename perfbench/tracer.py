"""Span recorder for the traced benchmark run.

Wraps fqlab's public functions and methods from outside the package: each
wrapped call records a span (name, start, end, parent, thread, thread CPU
time) in memory.  Nothing inside ``src/`` is edited.  ``harness`` and other
modules bind names such as ``run_lsvi`` at import time, so every fqlab module
namespace that holds the original object gets the wrapper.

Spans that start in a pool worker thread with no open span of their own take
the main thread's innermost open span (``harness.run_sweep``, blocked in the
pool) as parent.  Self time is a span's duration minus the union of its
children's intervals, so overlapping children in two threads are not counted
twice against the parent.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


def _push_flops(op):
    # computed from operand shapes, not measured
    if hasattr(op, "m0"):
        # unoptimised einsum "x,xi,xj->ij": two multiplies and one add per term
        return 3 * op.m0.shape[0] * op.m0.shape[1] * op.m1.shape[1]
    nodes, actions, next_nodes = op.probs.shape
    return 2 * nodes * actions * next_nodes


def _mse_gradient_flops(net, rows):
    # matmul flops of one forward/backward pass, computed from layer shapes:
    # forward and weight gradient for every layer, delta propagation for all
    # but the first
    sizes = [w.size for w in net.weights]
    return 2 * rows * (2 * sum(sizes) + sum(sizes[1:]))


def _localized_counts(args, kwargs, result, exc):
    if result is None:
        return {}
    draws = result.per_draw
    return {"rademacher.localized_rademacher.positive_draws": int((draws > 0).sum()),
            "rademacher.localized_rademacher.draws": len(draws)}


# (span name, module, attribute, extra counters) for module-level functions
FUNCTIONS = [
    ("mdp.sample_visitation", "fqlab.mdp", "sample_visitation",
     lambda a, k, r, e: {"mdp.sample_visitation.rows": r.n} if r is not None else {}),
    ("oracle.build_oracle", "fqlab.oracle", "build_oracle", None),
    ("oracle.ground_truth", "fqlab.oracle", "ground_truth",
     lambda a, k, r, e: {"oracle.ground_truth.sweeps": len(r.sweep_deltas)} if r is not None else {}),
    ("oracle.estimate_concentration", "fqlab.oracle", "estimate_concentration", None),
    ("oracle.tabulate_visitation", "fqlab.oracle", "tabulate_visitation", None),
    ("oracle.apply_bellman", "fqlab.oracle", "apply_bellman", None),
    ("relunet.fit_least_squares", "fqlab.relunet", "fit_least_squares",
     lambda a, k, r, e: {"relunet.fit_least_squares.diverged": int(
         type(e).__name__ == "TrainingDiverged")}),
    ("fqi.run_lsvi", "fqlab.fqi", "run_lsvi",
     lambda a, k, r, e: {"fqi.iterations": len(r[1].train_losses)} if r is not None else {}),
    ("fqi.measure_bellman_residuals", "fqlab.fqi", "measure_bellman_residuals", None),
    ("harness.run_sweep", "fqlab.harness", "run_sweep", None),
    ("harness.write_report", "fqlab.harness", "write_report", None),
    ("besov.modulus_of_smoothness", "fqlab.besov", "modulus_of_smoothness", None),
    ("besov.translation_difference", "fqlab.besov", "translation_difference", None),
    ("besov.besov_seminorm", "fqlab.besov", "besov_seminorm", None),
    ("besov.estimate_smoothness_exponent", "fqlab.besov", "estimate_smoothness_exponent", None),
    ("besov.diagnose_dynamic_closure", "fqlab.besov", "diagnose_dynamic_closure", None),
    ("rademacher.localized_rademacher", "fqlab.rademacher", "localized_rademacher",
     _localized_counts),
    ("rademacher.empirical_rademacher", "fqlab.rademacher", "empirical_rademacher", None),
    ("rademacher.sub_root_fixed_point", "fqlab.rademacher", "sub_root_fixed_point", None),
    ("cli.main", "fqlab.cli", "main", None),
]

# (span name, module, class names, method, extra counters) for methods
METHODS = [
    ("mdp.next_op.push", "fqlab.mdp", ("DenseNextOp", "SeparableNextOp"), "push",
     lambda a, k, r, e: {"mdp.next_op.push.flops": _push_flops(a[0])}),
    ("mdp.next_op.expect", "fqlab.mdp", ("DenseNextOp", "SeparableNextOp"), "expect", None),
    ("relunet.mse_gradient", "fqlab.relunet", ("ReluNetwork",), "mse_gradient",
     lambda a, k, r, e: {"relunet.mse_gradient.rows": len(a[2]),
                         "relunet.mse_gradient.flops": _mse_gradient_flops(a[0], len(a[2]))}),
    ("relunet.forward", "fqlab.relunet", ("ReluNetwork",), "forward",
     lambda a, k, r, e: {"relunet.forward.rows": len(r)} if r is not None else {}),
    ("relunet.weighted_output_gradient", "fqlab.relunet", ("ReluNetwork",),
     "weighted_output_gradient", None),
]

SPAN_NAMES = [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
COUNTER_NAMES = [
    "mdp.sample_visitation.rows", "mdp.next_op.push.flops", "oracle.ground_truth.sweeps",
    "relunet.fit_least_squares.diverged", "relunet.mse_gradient.rows",
    "relunet.mse_gradient.flops", "relunet.forward.rows", "fqi.iterations",
    "rademacher.localized_rademacher.positive_draws", "rademacher.localized_rademacher.draws",
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []   # (id, name, parent id or 0, thread, start, end, thread cpu, counters)
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident

    def _wrap(self, name, fn, extra):
        spans, ids, stacks, main = self.spans, self._ids, self._stacks, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main) if tid != main else None
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            result = error = None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                counters = extra(args, kwargs, result, error) if extra else None
                spans.append((sid, name, parent, tid, t0, t1, c1 - c0, counters))

        return traced

    def install(self):
        """Replace every traced function and method with its recording wrapper."""
        import importlib

        for name, module, attr, extra in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, original, extra)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "fqlab" or mod_name.startswith("fqlab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        for name, module, classes, attr, extra in METHODS:
            mod = importlib.import_module(module)
            for cls_name in classes:
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr), extra))
        return self

    def summary(self, jobs: int = 1) -> dict:
        """Per-name calls and self time, summed counters, busy time and the
        thread-pool efficiency of every ``harness.run_sweep`` span."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[2]].append(span)
        out = {f"{n}.calls": 0 for n in SPAN_NAMES}
        out.update({f"{n}.self_s": 0.0 for n in SPAN_NAMES})
        out.update({c: 0 for c in COUNTER_NAMES})
        busy = 0.0
        pool_cpu = pool_wall = 0.0
        for sid, name, _, tid, t0, t1, _, counters in self.spans:
            kids = children.get(sid, ())
            self_s = (t1 - t0) - _covered(kids, t0, t1)
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            busy += self_s
            for key, value in (counters or {}).items():
                out[key] += value
            if name == "harness.run_sweep":
                pool_wall += t1 - t0
                pool_cpu += sum(k[6] for k in kids if k[3] != tid)
        out["trace.busy_s"] = busy
        out["harness.parallel_efficiency"] = pool_cpu / (jobs * pool_wall) if pool_wall else 0.0
        return out

    def write(self, path):
        """Dump every span as CSV; times are seconds since the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        lines = ["id,name,parent,thread,start_s,end_s,thread_cpu_s"]
        for sid, name, parent, tid, t0, t1, cpu, _ in sorted(self.spans):
            lines.append(f"{sid},{name},{parent},{tid},{t0 - origin:.9f},{t1 - origin:.9f},{cpu:.9f}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _covered(kids, lo, hi):
    """Length of the union of the children's intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for _, _, _, _, t0, t1, _, _ in sorted(kids, key=lambda k: k[4]):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total
