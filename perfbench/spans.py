"""Span tracing of the isoperiod layers, from outside the package.

``Tracer.install`` replaces each traced function at every module attribute
that binds it (``normalized_basis`` is bound in ``periods``, ``flow``,
``apps`` and the package namespace) and ``EllipseContour.nodes`` on its
class; ``Tracer.uninstall`` puts the originals back.  Every call records a
span (name, start, end, parent span, op id) in flat in-memory arrays, and
work counts are read from return values.  Self time is a span's duration
minus the durations of its direct children.  Times are read from the
process CPU clock, as in the untraced run.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import process_time

# "<module>.<metric prefix>": (attribute in isoperiod.<module>, work counts
# read from the call's arguments and return value)
TARGETS = {
    "cycles.realize": ("realize", None),
    "cycles.nodes": ("EllipseContour.nodes", lambda a, out: {"points": a[1]}),
    "periods.normalized_basis": ("normalized_basis", None),
    "periods.integrate_contour": ("integrate_contour", lambda a, out: {"nodes": out[1]}),
    "periods.build_omega": ("build_omega", None),
    "periods.w_constants": ("w_constants", None),
    "periods.w_value": ("w_value", None),
    "curves.phi_values": ("phi_values", None),
    "curves.v_polynomial": ("v_polynomial", None),
    "flow.integrate_flow": ("integrate_flow", lambda a, out: {"samples": len(out.samples)}),
    "flow.solve_ivp": ("solve_ivp", lambda a, out: {"nfev": out.nfev}),
    "flow.newton_correct": ("newton_correct", lambda a, out: {"iters": out[2]}),
    "flow.first_derivatives": ("first_derivatives", None),
    "flow.rhs_genus_g": ("rhs_genus_g", None),
    "flow.verify_identities": ("verify_identities", None),
    "comb.comb_map": ("comb_map", None),
    "comb.comb_invariance_check": ("comb_invariance_check", None),
    "apps.wp_function": ("wp_function", None),
    "apps.cnoidal_period_report": ("cnoidal_period_report", None),
    "apps.kdv_wavevector_report": ("kdv_wavevector_report", None),
}

# counts reported beyond .calls and .self_s; every target counts "aborts",
# the calls that raised, but only solve_ivp's are reported: they are the
# singular-locus aborts that make the flow halve its step
EXTRA = {"cycles.nodes": ("points",), "periods.integrate_contour": ("nodes",),
         "flow.integrate_flow": ("samples",), "flow.solve_ivp": ("nfev", "aborts"),
         "flow.newton_correct": ("iters",)}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counts = defaultdict(float)     # (target, count) -> total
        self._stack = []
        self._op = -1
        self._patched = []                   # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "isoperiod" or n.startswith("isoperiod.")]
        for nid, (key, (attr, work)) in enumerate(TARGETS.items()):
            owner = sys.modules["isoperiod." + key.split(".")[0]]
            if "." in attr:                       # a method, wrapped on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(nid, key, orig, work))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(nid, key, orig, work)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, orig, wrapped)
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def _patch(self, owner, name, orig, wrapped):
        self._patched.append((owner, name, orig))
        setattr(owner, name, wrapped)

    def _wrap(self, nid, key, fn, work):
        tracer = self
        counts = self.counts

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                counts[key, "aborts"] += 1
                raise
            tracer._close(idx)
            if work is not None:
                for k, v in work(args, out).items():
                    counts[key, k] += v
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    # -- spans ----------------------------------------------------------------

    def begin_op(self, op_id: int):
        """Open the root span of one op; every layer span below it carries op_id."""
        self._op = op_id
        self.root = self._open(-1)

    def end_op(self):
        self._close(self.root)
        self._op = -1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(process_time())
        return idx

    def _close(self, idx: int):
        self.end[idx] = process_time()
        self._stack.pop()

    # -- derived metrics -----------------------------------------------------

    def layer_totals(self) -> dict:
        """{target: {"calls": n, "self_s": s, <work counts>...}} over all spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {key: {"calls": 0, "self_s": 0.0} for key in self.names}
        for i in range(n):
            nid = self.name_id[i]
            if nid < 0:
                continue
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["self_s"] += (self.end[i] - self.start[i]) - child[i]
        for key, extras in EXTRA.items():
            for k in extras:
                out[key][k] = self.counts.get((key, k), 0.0)
        return out
