"""In-memory span tracer that wraps seslab functions from outside the program.

Each wrapped call records one span: name, start, end and parent span.
Parents come from a thread-local stack, so a span opened on another thread
than its caller's has no parent. Spans are kept in memory and reduced after
the run. The benchmark runs seslab on one thread (SESLAB_THREADS=1).

Self time is a span's duration minus the durations of its children. Calls
nest strictly within a thread, so those children never overlap, and the
self times of one thread sum to the durations of its root spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
from collections import defaultdict, namedtuple
from time import perf_counter

Span = namedtuple("Span", "id name start end parent tag work")

# (module, attribute path) of every seslab callable the traced run wraps.
# A wrapper replaces the function at every seslab module that binds it, so
# `seslab.sesconv.conv2d`, `seslab.conv.conv2d` and `seslab.conv2d` all
# route through one wrapper.
TRACE_TARGETS = (
    ("conv", "conv2d"),
    ("sesconv", "Stack.forward"),
    ("sesconv", "build_stack"),
    ("sesconv", "ses_conv_input"),
    ("sesconv", "ses_conv_scalewise"),
    ("sesconv", "scale_projection"),
    ("sesconv", "relu"),
    ("resample", "scale_transform_stack"),
    ("resample", "scale_transform"),
    ("resample", "sample_at"),
    ("resample", "resize"),
    ("resample", "warp"),
    ("geometry", "log_polar"),
    ("geometry", "inverse_log_polar"),
    ("geometry", "projective_mapping"),
    ("geometry", "corollary_deviation"),
    ("geometry", "log_polar_roundtrip_ssim"),
    ("ssim", "ssim"),
    ("harness", "run_experiment"),
    ("harness", "error_map"),
    ("harness", "CorpusSpec.load"),
    ("synth", "synth_corpus"),
    ("basis", "build_basis"),
    ("fileio", "write_pgm"),
    ("fileio", "read_pgm"),
    ("cli", "main"),
    ("grid", "as_grid"),
)

# The untraced run times only the calls behind its latency metrics.
LATENCY_TARGETS = (
    ("sesconv", "Stack.forward"),
    ("geometry", "log_polar_roundtrip_ssim"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _conv_work(args, kwargs, result):
    """Work of one conv2d call, computed from its shapes, not measured.

    flop counts one multiply and one add per kernel tap and output pixel;
    bytes is the compulsory traffic: input, kernels and output once each.
    The tag is the call shape C x O x k x H x W.
    """
    c, h, w = _arg(args, kwargs, 0, "image").shape
    o, _, k, _ = _arg(args, kwargs, 1, "kernels").shape
    flop = 2 * o * c * k * k * h * w
    nbytes = 8 * (c * h * w + o * c * k * k + o * h * w)
    return {"flop": flop, "bytes": nbytes}, f"{c}x{o}x{k}x{h}x{w}"


def _stack_kind(args, kwargs, result):
    return None, args[0].spec.kind


def _points_work(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}, None


def _pgm_work(args, kwargs, result):
    h, w = _arg(args, kwargs, 1, "image").shape
    maxval = _arg(args, kwargs, 2, "maxval", 255)
    header = len(f"P5\n{w} {h}\n{maxval}\n")
    return {"bytes": header + h * w * (2 if maxval > 255 else 1)}, None


WORK = {
    "conv.conv2d": _conv_work,
    "sesconv.Stack.forward": _stack_kind,
    "resample.sample_at": _points_work,
    "fileio.write_pgm": _pgm_work,
}


class Tracer:
    """Collects spans from wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _open(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _wrap(self, name: str, fn):
        tracer = self
        work_fn = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            work, tag = work_fn(args, kwargs, result) if work_fn else (None, None)
            tracer.spans.append(
                Span(sid, name, start, end, parent, tag, work)
            )
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the caller."""
        stack, sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, None, None))

    def install(self, targets=TRACE_TARGETS):
        """Wrap each target at every loaded seslab module that binds it."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == "seslab" or n.startswith("seslab.")
        ]
        for module_name, path in targets:
            owner = sys.modules[f"seslab.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{module_name}.{path}", original)
            self._patch(owner, attr, wrapper)
            if outer:
                continue
            for module in modules:
                if module is owner:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, summed work, self seconds by tag."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        entry = out.get(s.name)
        if entry is None:
            entry = out[s.name] = {
                "calls": 0,
                "total_s": 0.0,
                "self_s": 0.0,
                "work": defaultdict(int),
                "by_tag": defaultdict(float),
            }
        entry["calls"] += 1
        entry["total_s"] += s.end - s.start
        entry["self_s"] += selfs[s.id]
        for key, value in (s.work or {}).items():
            entry["work"][key] += value
        if s.tag is not None:
            entry["by_tag"][s.tag] += selfs[s.id]
    return out


def self_under(spans, root_name: str, names) -> float:
    """Self time of the spans named in ``names`` that are, or descend from,
    a span named ``root_name``."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    memo = {}

    def under(sid):
        chain = []
        found = False
        while sid is not None:
            if sid in memo:
                found = memo[sid]
                break
            chain.append(sid)
            if by_id[sid].name == root_name:
                found = True
                break
            sid = by_id[sid].parent
        for c in chain:
            memo[c] = found
        return found

    return sum(selfs[s.id] for s in spans if s.name in names and under(s.id))
