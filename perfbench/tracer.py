"""Spans around the public functions of every qerasure module, from outside.

Tracer.install() rebinds each public function and public method (names
without a leading underscore, defined in a qerasure module) to a wrapper, in
every qerasure namespace that binds it, so calls between modules are seen
too.  Private helpers are not wrapped, so their time counts as the self time
of the public caller.  Each span records name, start, end, parent span and
operation id; spans stay in memory and are written out by dump().  Self time
is a span's duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("pauli", "states", "codes", "operator_space", "erasure", "unions",
           "fixtures", "cli")
# Public builders of a per-code gram tensor; gram bytes are computed as
# 16 * 4^n * K^2 per call, from the code argument.
SPACE_BUILDERS = ("erasure.erasure_space", "erasure.pure_erasure_space",
                  "erasure.annihilating_space")
MAX_SPANS = 2_000_000  # about 80 MB of span records


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "module.qualname"
        self.op: int | None = None  # spans are recorded only while set
        self.tag = ""
        self._stack: list[list] = []
        self._fresh_counters()
        self.per_tag: dict[str, dict] = {}
        self.setup: dict | None = None
        self.sp_id, self.sp_parent = array("q"), array("q")
        self.sp_name, self.sp_op = array("i"), array("i")
        self.sp_start, self.sp_end = array("d"), array("d")
        self.next_span = 0
        self.dropped = 0

    def _fresh_counters(self):
        n = len(self.names)
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.calls = [0] * n
        self.errors = [0] * n
        self.gram_bytes = 0.0

    # --- wrapping ---------------------------------------------------------

    def _new_name(self, name: str) -> int:
        self.names.append(name)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self.calls.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._new_name(name)
        gram = name in SPACE_BUILDERS
        stack, tr = self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tr.op
            if op is None:
                return fn(*args, **kwargs)
            if gram:
                code = args[0] if args else kwargs["code"]
                tr.gram_bytes += 16.0 * 4**code.n * code.k**2
            parent = stack[-1][2] if stack else -1
            sid = tr.next_span
            tr.next_span += 1
            frame = [perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.errors[nid] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                tr.self_s[nid] += dur - frame[1]
                tr.incl_s[nid] += dur
                tr.calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                if len(tr.sp_id) < MAX_SPANS:
                    tr.sp_id.append(sid)
                    tr.sp_name.append(nid)
                    tr.sp_op.append(op)
                    tr.sp_parent.append(parent)
                    tr.sp_start.append(frame[0])
                    tr.sp_end.append(end)
                else:
                    tr.dropped += 1

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"qerasure.{m}") for m in MODULES}
        namespaces = [importlib.import_module("qerasure"), *mods.values()]
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, short)
                elif callable(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, attr, wrapped[id(obj)])

    def _wrap_class(self, cls, short: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, property):
                new = property(self._wrap(member.fget, name), member.fset, member.fdel,
                               member.__doc__)
            elif isinstance(member, classmethod):
                new = classmethod(self._wrap(member.__func__, name))
            elif isinstance(member, staticmethod):
                new = staticmethod(self._wrap(member.__func__, name))
            elif inspect.isfunction(member):
                new = self._wrap(member, name)
            else:
                continue
            setattr(cls, attr, new)

    # --- operations -------------------------------------------------------

    def begin(self, op: int, tag: str) -> None:
        self.op, self.tag = op, tag

    def end(self, seconds: float | None) -> None:
        """Close the current operation; seconds=None marks set-up work."""
        totals = {"self_s": self.self_s, "incl_s": self.incl_s, "calls": self.calls,
                  "errors": self.errors, "gram_bytes": self.gram_bytes}
        if seconds is None:
            self.setup = totals
        else:
            acc = self.per_tag.setdefault(self.tag, {
                "ops": 0, "op_s": 0.0, "self_s": [0.0] * len(self.names),
                "calls": [0] * len(self.names), "errors": [0] * len(self.names),
                "gram_bytes": 0.0})
            acc["ops"] += 1
            acc["op_s"] += seconds
            acc["gram_bytes"] += self.gram_bytes
            for key in ("self_s", "calls", "errors"):
                dst = acc[key]
                for i, v in enumerate(totals[key]):
                    if v:
                        dst[i] += v
        self.op = None
        self._fresh_counters()

    def summary(self) -> dict:
        return {"names": self.names, "setup": self.setup, "per_tag": self.per_tag,
                "spans": len(self.sp_start), "spans_dropped": self.dropped}

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), id=np.frombuffer(self.sp_id, np.int64),
                 name=np.frombuffer(self.sp_name, np.int32),
                 op=np.frombuffer(self.sp_op, np.int32),
                 parent=np.frombuffer(self.sp_parent, np.int64),
                 start=np.frombuffer(self.sp_start), end=np.frombuffer(self.sp_end))
