"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` wraps each traced function wherever its name can be looked
up: in every ``intlegendre`` module that imported it with ``from ... import``
and, for ``Poly`` methods, under every alias in the class (``__radd__`` and
``__rmul__`` are the same functions as ``__add__`` and ``__mul__``).
``uninstall`` puts the originals back. Untraced runs never construct a Tracer.

Spans stay in memory as parallel arrays, one set per thread so that the
registry's thread pool appends without locks: name, outer start, call start,
call end, outer end, parent span, operation id and status. The outer interval
includes the wrapper's own bookkeeping, so a parent's self time excludes the
tracing cost of its children.

Span times are read from the calling thread's CPU clock. The registry's eight
threads take turns at the interpreter lock, so a wall-clock span would also
count the time its thread spent waiting for the lock; CPU time counts only
the time the layer was busy, and self times add up to the process's CPU time.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import thread_time

# module -> traced functions; exactpoly entries name Poly methods.
TARGETS = {
    "exactpoly": {"mul": "__mul__", "add": "__add__", "at": "at", "at_float": "at_float",
                  "integral": "integral", "divexact": "divexact"},
    "legendre": ("build_legendre", "legendre_float"),
    "qfamily": ("build_q_table", "weighted_inner_product", "q_roots"),
    "kernel": ("kernel_value", "kernel_sum"),
    "approx": ("brute_force_minimizer", "expand"),
    "moebius": ("build_r_family", "gram_matrix", "minimality_check"),
    "quad": ("gauss_legendre", "integrate"),
    "verify": ("run_verification",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
# Calls counted as failed: raised, or (for cli.main) returned a nonzero code.
OK, RAISED, NONZERO = 0, 1, 2
_FIELDS = ("name", "outer_start", "start", "end", "outer_end", "parent", "op", "status")


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.name = array("H")
        self.outer_start = array("d")
        self.start = array("d")
        self.end = array("d")
        self.outer_end = array("d")
        self.parent = array("q")  # index on this thread, or -1
        self.op = array("l")
        self.status = array("b")
        self.max_coeff_bits = 0


class Tracer:
    """Installs the span wrappers and turns the recorded spans into
    per-layer metrics."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = -1

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer()
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def begin_op(self, op_id: int) -> None:
        """Tag the spans opened from now on, on any thread, with op_id."""
        self.op_id = op_id

    def _wrap(self, name_id: int, fn, record_bits: bool = False, exit_code: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = thread_time()
            buf = tracer._buffer()
            parent = buf.stack[-1] if buf.stack else -1
            index = len(buf.name)
            buf.name.append(name_id)
            buf.outer_start.append(t0)
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.outer_end.append(0.0)
            buf.parent.append(parent)
            buf.op.append(tracer.op_id)
            buf.status.append(OK)
            buf.stack.append(index)
            status = RAISED
            t1 = thread_time()
            try:
                result = fn(*args, **kwargs)
                status = NONZERO if exit_code and result else OK
                return result
            finally:
                t2 = thread_time()
                buf.stack.pop()
                buf.start[index] = t1
                buf.end[index] = t2
                buf.status[index] = status
                if record_bits and status == OK and result is not NotImplemented:
                    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                                for c in result.coeffs), default=0)
                    if bits > buf.max_coeff_bits:
                        buf.max_coeff_bits = bits
                buf.outer_end[index] = thread_time()

        return traced

    def install(self) -> None:
        from intlegendre.exactpoly import Poly

        modules = [m for n, m in sys.modules.items() if n == "intlegendre" or n.startswith("intlegendre.")]
        for name_id, name in enumerate(SPAN_NAMES):
            mod_name, fn_name = name.split(".")
            if mod_name == "exactpoly":
                orig = Poly.__dict__[TARGETS["exactpoly"][fn_name]]
                wrapped = self._wrap(name_id, orig, record_bits=fn_name == "mul")
                owners = [Poly]
            else:
                orig = getattr(sys.modules[f"intlegendre.{mod_name}"], fn_name)
                wrapped = self._wrap(name_id, orig, exit_code=name == "cli.main")
                owners = modules
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, attr, wrapped)
                        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def export(self) -> dict:
        """The recorded spans as plain lists, for a child process to hand back."""
        return {"buffers": [{f: getattr(b, f).tolist() for f in _FIELDS}
                            | {"max_coeff_bits": b.max_coeff_bits} for b in self._buffers]}

    def merge(self, data: dict, op_id: int) -> None:
        """Add the spans a child process exported, as top-level spans of op_id.

        Span times are per-thread CPU times and a span's self time involves
        only spans of its own thread, so the child's buffers join as buffers
        of their own, unchanged.
        """
        with self._lock:
            for fields in data["buffers"]:
                buf = _Buffer()
                for f in _FIELDS:
                    getattr(buf, f).extend(fields[f])
                buf.op = array("l", [op_id] * len(buf.name))
                buf.max_coeff_bits = fields["max_coeff_bits"]
                self._buffers.append(buf)

    def span_count(self) -> int:
        return sum(len(b.name) for b in self._buffers)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self seconds and failure counts per traced function.

        Self time is the call's CPU time minus the CPU time of its child
        spans on the same thread, their tracing bookkeeping included.
        """
        import numpy as np

        n = len(SPAN_NAMES)
        self_s, calls, failed = np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        for b in self._buffers:
            if not len(b.name):
                continue
            name = np.frombuffer(b.name, dtype=np.uint16)
            outer = np.frombuffer(b.outer_end) - np.frombuffer(b.outer_start)
            inner = np.frombuffer(b.end) - np.frombuffer(b.start)
            parent = np.frombuffer(b.parent, dtype=np.int64)
            nested = parent >= 0
            cover = np.bincount(parent[nested], weights=outer[nested], minlength=len(name))
            self_s += np.bincount(name, weights=inner - cover, minlength=n)
            calls += np.bincount(name, minlength=n)
            failed += np.bincount(name[np.frombuffer(b.status, dtype=np.int8) != OK], minlength=n)

        out: dict[str, float] = {}
        for i, span in enumerate(SPAN_NAMES):
            if span != "verify.run_verification":
                out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        index = SPAN_NAMES.index
        out["exactpoly.mul.max_coeff_bits"] = max((b.max_coeff_bits for b in self._buffers), default=0)
        out["qfamily.q_roots.failed"] = int(failed[index("qfamily.q_roots")])
        out["approx.expand.failed"] = int(failed[index("approx.expand")])
        out["quad.integrate.failed"] = int(failed[index("quad.integrate")])
        out["cli.main.nonzero_exit"] = int(failed[index("cli.main")])
        return out

